//! Pluggable bulletin-board transports.
//!
//! The YOSO bulletin board is the protocol's *single* communication
//! channel (§3.3: broadcast costs the same as point-to-point), so the
//! board's storage and delivery mechanism is the natural seam for
//! scaling the simulation beyond one process. [`BoardTransport`]
//! abstracts that seam: the [`crate::BulletinBoard`] façade keeps its
//! posting and audit semantics while the transport decides *where*
//! postings live, and folds its own log into the per-phase
//! communication stats ([`BoardTransport::phases`]) —
//!
//! - [`InProcessTransport`]: the in-memory backend, a **run-length**
//!   posting log (what consecutive postings share is stored once per
//!   run, and the member indices as arithmetic [`Speakers`] spans, so a
//!   committee step `0, 1, …, n − 1` costs one span) with a
//!   `round_starts` index mapping each round to its range of sequence
//!   numbers, so round-scoped reads are `O(round size)` and iteration
//!   never clones history;
//! - [`crate::tcp::TcpTransport`]: a length-prefix-framed TCP client
//!   talking to a `board-server` process, so committee drivers and
//!   auditors can run as separate OS processes.
//!
//! Every backend must deliver the same **total order** of postings:
//! posts are sequenced by the backend (append order in-process, server
//! arrival order over TCP), and a driver posting from a single logical
//! thread therefore observes byte-identical transcripts over any
//! backend — the transport-parity suite in `yoso-core` pins this.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
// lint:allow(determinism): a waiter's timeout bounds only how long it
// sleeps on the board; no wall-clock value is read into the log.
use std::time::Duration;

use crate::board::Posting;
use crate::metrics::{tally, PhaseStats, PhaseTable};
use crate::role::RoleId;

/// Errors surfaced by a board transport.
///
/// The in-process backend is infallible; TCP backends fail on I/O and
/// protocol violations. The protocol layers treat any transport error
/// as fatal for the run (the board is the only channel — without it no
/// progress is possible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoardError {
    /// An I/O failure talking to a remote board (after retries).
    Io(String),
    /// The peer violated the wire protocol (bad frame, bad opcode,
    /// undecodable payload).
    Protocol(String),
}

impl std::fmt::Display for BoardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoardError::Io(msg) => write!(f, "board transport I/O error: {msg}"),
            BoardError::Protocol(msg) => write!(f, "board wire-protocol error: {msg}"),
        }
    }
}

impl std::error::Error for BoardError {}

/// A board post as submitted by a client: everything a [`Posting`]
/// carries except the round, which the transport assigns at append
/// time (server-side sequencing keeps multi-process runs deterministic).
///
/// `elements`/`bytes` are the metered size of the post; they travel
/// with the posting, so the per-phase stats are a fold over the log
/// wherever it lives ([`BoardTransport::phases`]).
#[derive(Debug, Clone)]
pub struct PostRecord<M> {
    /// The author role.
    pub from: RoleId,
    /// The protocol phase the post is metered under.
    pub phase: Arc<str>,
    /// The message payload.
    pub message: M,
    /// Metered size in ring elements.
    pub elements: u64,
    /// Metered size in bytes.
    pub bytes: u64,
}

/// One arithmetic span of a [`Speakers`] sequence: the indices
/// `first, first + step, first + 2·step, …` at positions `at ..` up to
/// the next span's `at` (or the sequence end). `step` is 0 (one member
/// posting again) or 1 (consecutive members); a span of one index
/// keeps `step` 0 until its second index settles it.
#[derive(Debug, Clone, Copy)]
struct Span {
    at: usize,
    first: usize,
    step: usize,
}

/// An append-only sequence of member indices stored as arithmetic
/// spans. A committee step `0, 1, …, n − 1` is one span, and so is a
/// member posting `p` times in a row, so appending a posting's index
/// costs a counter increment, not a stored index.
#[derive(Debug, Clone, Default)]
pub struct Speakers {
    spans: Vec<Span>,
    len: usize,
}

impl Speakers {
    /// An empty sequence.
    pub fn new() -> Self {
        Speakers::default()
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence holds no index.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of spans the indices occupy.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Appends `index`, extending the last span when it continues it.
    pub fn push(&mut self, index: usize) {
        let len = self.len;
        self.len += 1;
        if let Some(last) = self.spans.last_mut() {
            let (count, offset) = (len - last.at, index.wrapping_sub(last.first));
            if count == 1 && offset <= 1 {
                // The second index settles the step.
                last.step = offset;
                return;
            }
            if count > 1 && offset == last.step * count {
                return;
            }
        }
        self.spans.push(Span { at: len, first: index, step: 0 });
    }

    /// Appends every index of `other`, span by span: the first two
    /// indices of a span go through [`Speakers::push`] (so a span that
    /// continues the last one merges at the seam), the rest are
    /// counted on.
    pub fn extend(&mut self, other: &Speakers) {
        for (k, span) in other.spans.iter().enumerate() {
            let count = other.span_end(k) - span.at;
            for i in 0..count.min(2) {
                self.push(span.first.wrapping_add(span.step * i));
            }
            if count > 2 {
                // The last span ends with this span's second index, and
                // it either has this span's step or holds that index
                // alone.
                if let Some(last) = self.spans.last_mut() {
                    last.step = span.step;
                }
                self.len += count - 2;
            }
        }
    }

    /// The stretches of positions whose indices lie in `members`, each
    /// as its first position and its indices, in order. Worked out span
    /// by span: a span's indices inside `members` sit at one stretch of
    /// positions, and stretches at consecutive positions join.
    pub fn within(&self, members: std::ops::Range<usize>) -> Vec<(usize, Speakers)> {
        let mut out: Vec<(usize, Speakers)> = Vec::new();
        for (k, span) in self.spans.iter().enumerate() {
            let count = self.span_end(k) - span.at;
            // Offsets `lo..hi` of the span whose index is in `members`.
            let (lo, hi) = match span.step {
                0 if members.contains(&span.first) => (0, count),
                0 => (0, 0),
                _ => (
                    members.start.saturating_sub(span.first).min(count),
                    members.end.saturating_sub(span.first).min(count),
                ),
            };
            if lo >= hi {
                continue;
            }
            let step = if hi - lo > 1 { span.step } else { 0 };
            let first = span.first.wrapping_add(span.step * lo);
            let piece = Speakers { spans: vec![Span { at: 0, first, step }], len: hi - lo };
            match out.last_mut() {
                Some((start, run)) if *start + run.len == span.at + lo => run.extend(&piece),
                _ => out.push((span.at + lo, piece)),
            }
        }
        out
    }

    /// Where span `k` ends.
    fn span_end(&self, k: usize) -> usize {
        self.spans.get(k + 1).map_or(self.len, |next| next.at)
    }

    /// Every index, in order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.range(0..self.len)
    }

    /// The indices at positions `range` (clamped to the sequence), in
    /// order; the range may start or end mid-span.
    pub fn range(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let (lo, hi) = (range.start, range.end.min(self.len));
        // The span holding `lo` is the last one starting at or before it.
        let first = self.spans.partition_point(|span| span.at <= lo).saturating_sub(1);
        let spans = self.spans.get(first..).unwrap_or_default();
        spans.iter().enumerate().take_while(move |(_, span)| span.at < hi).flat_map(
            move |(k, span)| {
                let (a, b) = (span.at.max(lo), self.span_end(first + k).min(hi));
                (a..b).map(move |pos| span.first.wrapping_add(span.step * (pos - span.at)))
            },
        )
    }
}

impl FromIterator<usize> for Speakers {
    fn from_iter<I: IntoIterator<Item = usize>>(indices: I) -> Self {
        let mut speakers = Speakers::new();
        for index in indices {
            speakers.push(index);
        }
        speakers
    }
}

impl From<&[usize]> for Speakers {
    fn from(indices: &[usize]) -> Self {
        indices.iter().copied().collect()
    }
}

/// A committee step as submitted by a client: `members` of one
/// committee each posting `message` under `phase` at one metered size.
/// This is the protocol's own unit of communication (a committee speaks
/// once per round), so every layer takes it whole — the members travel
/// as [`Speakers`] spans (a step `0, 1, …, n − 1` is one span), and
/// everything else once per run. Indices may repeat (a member posting
/// the same message several times).
#[derive(Debug)]
pub struct PostRun<'a, M> {
    /// The committee label shared by the posting roles.
    pub committee: &'a Arc<str>,
    /// The protocol phase the posts are metered under.
    pub phase: &'a str,
    /// The message payload every member posts.
    pub message: &'a M,
    /// Metered size of each posting, in ring elements.
    pub elements: u64,
    /// Metered size of each posting, in bytes.
    pub bytes: u64,
    /// The posting members' indices, in posting order.
    pub members: &'a Speakers,
}

/// The transport behind a [`crate::BulletinBoard`]: append-only posting
/// storage with a round clock and round-scoped reads.
///
/// # Ordering contract
///
/// `post_batch` appends all records of one call **atomically and in
/// order** (one lock acquisition in-process, one frame over TCP); the
/// backend assigns each record the current round and a global sequence
/// number in arrival order. Two backends fed the same call sequence
/// from a single thread produce identical posting logs.
pub trait BoardTransport<M>: Send + Sync {
    /// Appends a batch of records atomically, tagging each with the
    /// current round, in the order given.
    fn post_batch(&self, records: Vec<PostRecord<M>>) -> Result<(), BoardError>;

    /// Streaming variant of [`BoardTransport::post_batch`]: drains the
    /// iterator straight into the log (or wire frame) without building
    /// an intermediate `Vec`, and returns how many records were
    /// appended. The atomicity and ordering contract is the same — the
    /// whole stream lands under one lock acquisition / in one frame.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    fn post_stream(
        &self,
        records: &mut dyn Iterator<Item = PostRecord<M>>,
    ) -> Result<u64, BoardError> {
        let batch: Vec<PostRecord<M>> = records.collect();
        let n = batch.len() as u64;
        self.post_batch(batch)?;
        Ok(n)
    }

    /// Uniform-batch fast path: appends every message of the slice as
    /// a posting from one role under one phase with one metered size —
    /// the hot path of [`crate::BulletinBoard::post_batch`]. Backends
    /// with local storage override this to build postings in place
    /// with a fully monomorphic loop (no per-record virtual dispatch).
    /// Same atomicity contract as [`BoardTransport::post_batch`].
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    fn post_slice(
        &self,
        from: &RoleId,
        phase: &Arc<str>,
        messages: &[M],
        elements: u64,
        bytes: u64,
    ) -> Result<(), BoardError>
    where
        M: Clone,
    {
        self.post_stream(&mut messages.iter().map(|message| PostRecord {
            from: from.clone(),
            phase: Arc::clone(phase),
            message: message.clone(),
            elements,
            bytes,
        }))
        .map(|_| ())
    }

    /// Run-level posting, the protocol's hot path: appends one posting
    /// per member index of every run, in order, under the same
    /// atomicity contract as [`BoardTransport::post_stream`] (the whole
    /// call lands under one lock acquisition / in one flush). A run
    /// with no members appends nothing. The default expands the runs'
    /// member spans into a record stream, so a backend (or wrapper)
    /// that implements only the record-level methods still sees every
    /// posting; backends override it to do the per-run work once per
    /// run.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    fn post_run(&self, runs: &[PostRun<'_, M>]) -> Result<(), BoardError>
    where
        M: Clone,
    {
        self.post_stream(&mut runs.iter().flat_map(|run| {
            let phase: Arc<str> = Arc::from(run.phase);
            run.members.iter().map(move |index| PostRecord {
                from: RoleId { committee: Arc::clone(run.committee), index },
                phase: Arc::clone(&phase),
                message: run.message.clone(),
                elements: run.elements,
                bytes: run.bytes,
            })
        }))
        .map(|_| ())
    }

    /// Advances the synchronous round clock; returns the new round.
    fn advance_round(&self) -> Result<u64, BoardError>;

    /// The current round.
    fn round(&self) -> Result<u64, BoardError>;

    /// Total number of postings so far.
    fn len(&self) -> Result<usize, BoardError>;

    /// Whether the board holds no postings yet.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    fn is_empty(&self) -> Result<bool, BoardError> {
        Ok(self.len()? == 0)
    }

    /// All postings made in `round` (clones of that round's slice
    /// only — `O(round size)`).
    fn read_round(&self, round: u64) -> Result<Vec<Posting<M>>, BoardError>;

    /// All postings with sequence number `>= cursor` (the cursor-based
    /// subscription primitive — readers resume where they left off and
    /// never re-read or re-clone history).
    fn read_from(&self, cursor: usize) -> Result<Vec<Posting<M>>, BoardError>;

    /// Applies `f` to every posting in order. Backends with local
    /// storage override this to iterate without cloning.
    fn for_each(&self, f: &mut dyn FnMut(&Posting<M>)) -> Result<(), BoardError> {
        for p in self.read_from(0)? {
            f(&p);
        }
        Ok(())
    }

    /// Applies `f` to every posting of `round` in order. Backends with
    /// local storage override this to iterate without cloning.
    fn for_each_in_round(
        &self,
        round: u64,
        f: &mut dyn FnMut(&Posting<M>),
    ) -> Result<(), BoardError> {
        for p in self.read_round(round)? {
            f(&p);
        }
        Ok(())
    }

    /// Per-phase communication stats over every posting on the board,
    /// in label order: each posting adds its metered size to its
    /// phase. The default folds the postings one round per read
    /// (rounds `0..=round()`), so a wrapper that forwards only the
    /// record-level reads still reports the whole log; backends that
    /// hold the log, or talk to one, override it to fold run by run.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    fn phases(&self) -> Result<Vec<(String, PhaseStats)>, BoardError> {
        let mut table = PhaseTable::new();
        for round in 0..=self.round()? {
            self.for_each_in_round(round, &mut |p| {
                let one = PhaseStats { elements: p.elements, bytes: p.bytes, messages: 1 };
                tally(&mut table, &p.phase, one);
            })?;
        }
        Ok(table.into_iter().collect())
    }

    /// Retired: no backend drops postings any more and nothing in the
    /// workspace calls this. The defaulted no-op stays only because the
    /// frozen benchmark package's tracing transport forwards it; it
    /// goes when that forwarder does.
    ///
    /// # Errors
    ///
    /// Never fails.
    fn retain_rounds_from(&self, _round: u64) -> Result<(), BoardError> {
        Ok(())
    }

    /// A counter that moves on every posting and round tick, read by a
    /// waiter before it looks at the board ([`BoardTransport::wait_changed`]);
    /// `None` (the default) where the backend cannot wake waiters, who
    /// then poll.
    fn changes(&self) -> Option<u64> {
        None
    }

    /// Blocks until [`BoardTransport::changes`] has moved past `seen` or
    /// `timeout` elapses. The default returns at once.
    fn wait_changed(&self, seen: u64, timeout: Duration) {
        let _ = (seen, timeout);
    }

    /// A short human-readable backend label (diagnostics, bench tables).
    fn backend_name(&self) -> &'static str;
}

/// Whether two labels are the same string. Labels handed out by one
/// [`crate::Committee`] alias one allocation, and so do the phase
/// labels of consecutive runs appended by `RunLog::push_run`, so the
/// pointer test settles the hot path; labels that were allocated
/// separately still compare by value.
fn same_label(a: &str, b: &str) -> bool {
    std::ptr::eq(a, b) || a == b
}

/// What the consecutive postings of one run share: everything a
/// [`Posting`] carries except the member index.
#[derive(Debug)]
struct Run<M> {
    /// Sequence number of the run's first posting. The run ends where
    /// the next one starts (or at the log end).
    start: usize,
    round: u64,
    committee: Arc<str>,
    phase: Arc<str>,
    message: M,
    elements: u64,
    bytes: u64,
}

impl<M: Clone> Run<M> {
    /// The run's posting by member `index`.
    fn posting(&self, index: usize) -> Posting<M> {
        Posting {
            round: self.round,
            from: RoleId { committee: Arc::clone(&self.committee), index },
            phase: Arc::clone(&self.phase),
            message: self.message.clone(),
            elements: self.elements,
            bytes: self.bytes,
        }
    }
}

/// Run-length in-memory posting storage of the in-process transport.
///
/// A committee step posts `n` messages that differ only in who sent
/// them, so the log stores the shared part once per [`Run`] and the
/// member indices as one [`Speakers`] column, each span recording the
/// sequence number it starts at (a span may go on across a run
/// boundary; readers cut it by sequence range). A posting
/// extends the last run when its round, committee, phase, message and
/// metered size all equal the run's; anything else starts a new run.
/// Runs never span a round tick, so `round_starts` — `round_starts[r]`
/// is the sequence number of round `r`'s first posting, round `r`
/// occupying `round_starts[r] .. round_starts[r+1]` (or the log end for
/// the open round) — always cuts between runs.
#[derive(Debug)]
struct RunLog<M> {
    runs: Vec<Run<M>>,
    /// Member index of every posting, by sequence number; its length
    /// is the posting counter.
    members: Speakers,
    round_starts: Vec<usize>,
    round: u64,
}

impl<M> Default for RunLog<M> {
    fn default() -> Self {
        RunLog { runs: Vec::new(), members: Speakers::new(), round_starts: vec![0], round: 0 }
    }
}

impl<M> RunLog<M> {
    /// Total postings appended — the sequence number the next posting
    /// will get.
    fn len(&self) -> usize {
        self.members.len()
    }

    /// The `[lo, hi)` sequence-number range holding round `round`'s
    /// postings.
    fn round_range(&self, round: u64) -> std::ops::Range<usize> {
        let start_of = |r: usize| self.round_starts.get(r).copied().unwrap_or(self.len());
        let r = usize::try_from(round).unwrap_or(usize::MAX);
        start_of(r)..start_of(r.saturating_add(1))
    }

    /// Whether a posting with these shared fields continues the last
    /// run. Cheapest tests first; the message compare runs only once
    /// everything else already matches.
    fn extends(
        &self,
        committee: &str,
        phase: &str,
        message: &M,
        elements: u64,
        bytes: u64,
    ) -> bool
    where
        M: PartialEq,
    {
        self.runs.last().is_some_and(|run| {
            run.round == self.round
                && run.elements == elements
                && run.bytes == bytes
                && same_label(&run.committee, committee)
                && same_label(&run.phase, phase)
                && run.message == *message
        })
    }

    /// Opens a run at the log end, in the current round.
    fn start_run(
        &mut self,
        committee: Arc<str>,
        phase: Arc<str>,
        message: M,
        elements: u64,
        bytes: u64,
    ) {
        let (start, round) = (self.len(), self.round);
        self.runs.push(Run { start, round, committee, phase, message, elements, bytes });
    }

    /// Appends one record in the current round.
    fn push(&mut self, r: PostRecord<M>)
    where
        M: PartialEq,
    {
        if !self.extends(&r.from.committee, &r.phase, &r.message, r.elements, r.bytes) {
            self.start_run(r.from.committee, r.phase, r.message, r.elements, r.bytes);
        }
        self.members.push(r.from.index);
    }

    /// Appends a whole submitted run in the current round: one
    /// comparison against the last run, one span-wise copy of the
    /// indices.
    /// A run opened here shares the previous run's phase label when the
    /// phase has not changed, so a phase still costs one allocation.
    fn push_run(&mut self, run: &PostRun<'_, M>)
    where
        M: Clone + PartialEq,
    {
        if run.members.is_empty() {
            return;
        }
        if !self.extends(run.committee, run.phase, run.message, run.elements, run.bytes) {
            let phase = match self.runs.last() {
                Some(last) if *last.phase == *run.phase => Arc::clone(&last.phase),
                _ => Arc::from(run.phase),
            };
            self.start_run(
                Arc::clone(run.committee),
                phase,
                run.message.clone(),
                run.elements,
                run.bytes,
            );
        }
        self.members.extend(run.members);
    }

    /// Calls `f(run, seqs)` for every run overlapping the range, in log
    /// order, with the sequence numbers of the overlap — the range may
    /// start or end mid-run.
    fn walk(
        &self,
        range: std::ops::Range<usize>,
        mut f: impl FnMut(&Run<M>, std::ops::Range<usize>),
    ) {
        let (lo, hi) = (range.start, range.end.min(self.len()));
        if lo >= hi {
            return;
        }
        // The run holding `lo` is the last one starting at or before it.
        let first = self.runs.partition_point(|run| run.start <= lo).saturating_sub(1);
        let mut runs = self.runs.iter().skip(first).peekable();
        while let Some(run) = runs.next() {
            if run.start >= hi {
                break;
            }
            let run_end = runs.peek().map_or(self.len(), |next| next.start);
            f(run, run.start.max(lo)..run_end.min(hi));
        }
    }

    /// Clones of the postings in the range, in order.
    fn read(&self, range: std::ops::Range<usize>) -> Vec<Posting<M>>
    where
        M: Clone,
    {
        let mut out = Vec::with_capacity(range.end.saturating_sub(range.start));
        self.walk(range, |run, seqs| {
            out.extend(self.members.range(seqs).map(|index| run.posting(index)));
        });
        out
    }

    /// Applies `f` to every posting in the range without cloning per
    /// posting: one scratch [`Posting`] per run, whose member index is
    /// rewritten in place as the run's spans expand.
    fn visit(&self, range: std::ops::Range<usize>, f: &mut dyn FnMut(&Posting<M>))
    where
        M: Clone,
    {
        self.walk(range, |run, seqs| {
            let mut scratch = run.posting(0);
            for index in self.members.range(seqs) {
                scratch.from.index = index;
                f(&scratch);
            }
        });
    }

    /// Per-phase stats of the whole log, one step per run: a run adds
    /// its posting count times its per-posting size.
    fn phases(&self) -> PhaseTable {
        let mut table = PhaseTable::new();
        self.walk(0..self.len(), |run, seqs| {
            let count = seqs.len() as u64;
            let stats = PhaseStats {
                elements: run.elements * count,
                bytes: run.bytes * count,
                messages: count,
            };
            tally(&mut table, &run.phase, stats);
        });
        table
    }

    /// Ticks the round clock, sealing the current round's range (and
    /// with it the last run: `extends` never matches an older round).
    fn advance(&mut self) -> u64 {
        self.round += 1;
        self.round_starts.push(self.len());
        self.round
    }
}

/// The in-process backend: postings live in this process behind one
/// `RwLock`, in a run-length log (`RunLog`) whose round index makes
/// round reads `O(round size)` and whose `for_each*` overrides build
/// one scratch posting per run instead of cloning each one.
#[derive(Debug)]
pub struct InProcessTransport<M> {
    log: RwLock<RunLog<M>>,
    wake: Wake,
}

/// Wakes the threads waiting on an in-process board when it changes:
/// a counter every posting and round tick moves, and a condition
/// variable notified only while someone waits on it.
#[derive(Debug, Default)]
struct Wake {
    changes: AtomicU64,
    waiters: AtomicUsize,
    lock: Mutex<()>,
    moved: Condvar,
}

impl Wake {
    /// Moves the counter, waking any waiter.
    fn notify(&self) {
        self.changes.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            // Taken so no waiter is between its check and its wait.
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.moved.notify_all();
        }
    }

    /// Blocks until the counter is past `seen` or `timeout` elapses.
    fn wait(&self, seen: u64, timeout: Duration) {
        let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let unmoved = |_: &mut ()| self.changes.load(Ordering::SeqCst) == seen;
        let waited = self.moved.wait_timeout_while(guard, timeout, unmoved);
        drop(waited.unwrap_or_else(PoisonError::into_inner));
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<M> Default for InProcessTransport<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> InProcessTransport<M> {
    /// Creates an empty in-process board store.
    pub fn new() -> Self {
        InProcessTransport { log: RwLock::new(RunLog::default()), wake: Wake::default() }
    }

    fn read_log(&self) -> RwLockReadGuard<'_, RunLog<M>> {
        self.log.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_log(&self) -> RwLockWriteGuard<'_, RunLog<M>> {
        self.log.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies `f` to every posting with sequence number `>= cursor`,
    /// in order, without cloning per posting (the board server's
    /// `ReadFrom`).
    pub(crate) fn visit_from(&self, cursor: usize, f: &mut dyn FnMut(&Posting<M>))
    where
        M: Clone,
    {
        let g = self.read_log();
        g.visit(cursor.min(g.len())..g.len(), f);
    }

    /// Number of runs the postings occupy.
    #[cfg(test)]
    pub(crate) fn run_count(&self) -> usize {
        self.read_log().runs.len()
    }

    /// Number of spans the postings' member indices occupy.
    #[cfg(test)]
    pub(crate) fn span_count(&self) -> usize {
        self.read_log().members.span_count()
    }
}

impl<M: Clone + PartialEq + Send + Sync> BoardTransport<M> for InProcessTransport<M> {
    fn post_batch(&self, records: Vec<PostRecord<M>>) -> Result<(), BoardError> {
        self.post_stream(&mut records.into_iter()).map(|_| ())
    }

    fn post_stream(
        &self,
        records: &mut dyn Iterator<Item = PostRecord<M>>,
    ) -> Result<u64, BoardError> {
        let mut g = self.write_log();
        let before = g.len();
        for r in records {
            g.push(r);
        }
        let appended = (g.len() - before) as u64;
        drop(g);
        self.wake.notify();
        Ok(appended)
    }

    fn post_slice(
        &self,
        from: &RoleId,
        phase: &Arc<str>,
        messages: &[M],
        elements: u64,
        bytes: u64,
    ) -> Result<(), BoardError> {
        let mut g = self.write_log();
        for message in messages {
            if !g.extends(&from.committee, phase, message, elements, bytes) {
                g.start_run(
                    Arc::clone(&from.committee),
                    Arc::clone(phase),
                    message.clone(),
                    elements,
                    bytes,
                );
            }
            g.members.push(from.index);
        }
        drop(g);
        self.wake.notify();
        Ok(())
    }

    fn post_run(&self, runs: &[PostRun<'_, M>]) -> Result<(), BoardError> {
        let mut g = self.write_log();
        for run in runs {
            g.push_run(run);
        }
        drop(g);
        self.wake.notify();
        Ok(())
    }

    fn advance_round(&self) -> Result<u64, BoardError> {
        let round = self.write_log().advance();
        self.wake.notify();
        Ok(round)
    }

    fn round(&self) -> Result<u64, BoardError> {
        Ok(self.read_log().round)
    }

    fn len(&self) -> Result<usize, BoardError> {
        Ok(self.read_log().len())
    }

    fn read_round(&self, round: u64) -> Result<Vec<Posting<M>>, BoardError> {
        let g = self.read_log();
        Ok(g.read(g.round_range(round)))
    }

    fn read_from(&self, cursor: usize) -> Result<Vec<Posting<M>>, BoardError> {
        let g = self.read_log();
        Ok(g.read(cursor.min(g.len())..g.len()))
    }

    fn for_each(&self, f: &mut dyn FnMut(&Posting<M>)) -> Result<(), BoardError> {
        self.visit_from(0, f);
        Ok(())
    }

    fn for_each_in_round(
        &self,
        round: u64,
        f: &mut dyn FnMut(&Posting<M>),
    ) -> Result<(), BoardError> {
        let g = self.read_log();
        g.visit(g.round_range(round), f);
        Ok(())
    }

    fn phases(&self) -> Result<Vec<(String, PhaseStats)>, BoardError> {
        Ok(self.read_log().phases().into_iter().collect())
    }

    fn changes(&self) -> Option<u64> {
        Some(self.wake.changes.load(Ordering::SeqCst))
    }

    fn wait_changed(&self, seen: u64, timeout: Duration) {
        self.wake.wait(seen, timeout);
    }

    fn backend_name(&self) -> &'static str {
        "in-process"
    }
}

/// A value with a canonical byte encoding for the TCP board wire.
///
/// The one codec of the workspace: board messages that cross process
/// boundaries implement it by hand. Encodings must be deterministic:
/// the transcript-parity guarantee compares re-decoded postings
/// byte-for-byte.
pub trait WireMessage: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::Protocol`] if a length-prefixed field
    /// exceeds the wire format's `u32` length prefix (see
    /// [`put_bytes`]).
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), BoardError>;
    /// Decodes one value from the cursor.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::Protocol`] on malformed input.
    fn decode(cur: &mut WireCursor<'_>) -> Result<Self, BoardError>;
}

/// A read cursor over a received wire buffer.
#[derive(Debug)]
pub struct WireCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    /// Wraps a buffer for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        WireCursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads the next `n` raw bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], BoardError> {
        if self.remaining() < n {
            return Err(BoardError::Protocol(format!(
                "truncated frame: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, BoardError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, BoardError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, BoardError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], BoardError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, BoardError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| BoardError::Protocol(format!("non-UTF-8 string on wire: {e}")))
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed byte string.
///
/// # Errors
///
/// Returns [`BoardError::Protocol`] if `b` is longer than `u32::MAX`
/// bytes — an `as` cast would silently truncate the length prefix and
/// corrupt the wire stream.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) -> Result<(), BoardError> {
    let len = u32::try_from(b.len()).map_err(|_| {
        BoardError::Protocol(format!(
            "byte string of {} bytes exceeds the u32 wire length prefix",
            b.len()
        ))
    })?;
    put_u32(out, len);
    out.extend_from_slice(b);
    Ok(())
}

/// Appends a length-prefixed UTF-8 string.
///
/// # Errors
///
/// Returns [`BoardError::Protocol`] if `s` is longer than `u32::MAX`
/// bytes (see [`put_bytes`]).
pub fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), BoardError> {
    put_bytes(out, s.as_bytes())
}

impl WireMessage for String {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), BoardError> {
        put_str(out, self)
    }

    fn decode(cur: &mut WireCursor<'_>) -> Result<Self, BoardError> {
        Ok(cur.str()?.to_string())
    }
}

impl WireMessage for u64 {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), BoardError> {
        put_u64(out, *self);
        Ok(())
    }

    fn decode(cur: &mut WireCursor<'_>) -> Result<Self, BoardError> {
        cur.u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: usize, phase: &str) -> PostRecord<u64> {
        PostRecord {
            from: RoleId::new("c", i),
            phase: Arc::from(phase),
            message: i as u64,
            elements: 1,
            bytes: 8,
        }
    }

    #[test]
    fn round_index_partitions_log() {
        let t = InProcessTransport::<u64>::new();
        t.post_batch(vec![rec(0, "a"), rec(1, "a")]).unwrap();
        t.advance_round().unwrap();
        t.post_batch(vec![rec(2, "b")]).unwrap();
        t.advance_round().unwrap();
        // Round 2 is empty so far.
        assert_eq!(t.len().unwrap(), 3);
        assert_eq!(t.read_round(0).unwrap().len(), 2);
        assert_eq!(t.read_round(1).unwrap().len(), 1);
        assert_eq!(t.read_round(1).unwrap()[0].message, 2);
        assert!(t.read_round(2).unwrap().is_empty());
        assert!(t.read_round(99).unwrap().is_empty());
    }

    #[test]
    fn cursor_reads_resume() {
        let t = InProcessTransport::<u64>::new();
        t.post_batch(vec![rec(0, "a")]).unwrap();
        let first = t.read_from(0).unwrap();
        assert_eq!(first.len(), 1);
        t.post_batch(vec![rec(1, "a"), rec(2, "a")]).unwrap();
        let rest = t.read_from(first.len()).unwrap();
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].message, 1);
        assert!(t.read_from(3).unwrap().is_empty());
        assert!(t.read_from(100).unwrap().is_empty());
    }

    #[test]
    fn for_each_in_round_visits_exactly_that_round() {
        let t = InProcessTransport::<u64>::new();
        t.post_batch(vec![rec(0, "a")]).unwrap();
        t.advance_round().unwrap();
        t.post_batch(vec![rec(1, "b"), rec(2, "b")]).unwrap();
        let mut seen = Vec::new();
        t.for_each_in_round(1, &mut |p| seen.push(p.message)).unwrap();
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn a_committee_step_occupies_one_run() {
        // n members posting the same message under one phase, through
        // each entry point: one run, n member indices.
        let committee = crate::Committee::honest("off-1", 64);
        let phase: Arc<str> = Arc::from("offline/1-beaver");
        let step = |t: &InProcessTransport<u64>| {
            t.post_stream(&mut (0..committee.n()).map(|i| PostRecord {
                from: committee.role(i),
                phase: Arc::clone(&phase),
                message: 7,
                elements: 2,
                bytes: 16,
            }))
            .unwrap();
        };
        let t = InProcessTransport::<u64>::new();
        step(&t);
        assert_eq!((t.len().unwrap(), t.run_count()), (64, 1));
        // A second, identical step in the same round continues it.
        step(&t);
        t.post_slice(&committee.role(3), &phase, &[7, 7, 7], 2, 16).unwrap();
        assert_eq!((t.len().unwrap(), t.run_count()), (131, 1));
        let members: Vec<usize> = t.read_from(126).unwrap().iter().map(|p| p.from.index).collect();
        assert_eq!(members, vec![62, 63, 3, 3, 3]);
    }

    #[test]
    fn equal_labels_in_distinct_allocations_still_merge() {
        let t = InProcessTransport::<u64>::new();
        // `rec` allocates a fresh committee and phase label per record.
        let records: Vec<PostRecord<u64>> =
            (0..5).map(|i| PostRecord { message: 1, ..rec(i, "a") }).collect();
        assert!(!Arc::ptr_eq(&records[0].phase, &records[1].phase));
        assert!(!Arc::ptr_eq(&records[0].from.committee, &records[1].from.committee));
        t.post_batch(records).unwrap();
        assert_eq!((t.len().unwrap(), t.run_count()), (5, 1));
    }

    #[test]
    fn any_differing_field_starts_a_new_run() {
        let base = || PostRecord { message: 1, ..rec(0, "a") };
        let variants: [(&str, PostRecord<u64>); 5] = [
            ("committee", PostRecord { from: RoleId::new("d", 0), ..base() }),
            ("phase", PostRecord { phase: Arc::from("b"), ..base() }),
            ("message", PostRecord { message: 2, ..base() }),
            ("elements", PostRecord { elements: 2, ..base() }),
            ("bytes", PostRecord { bytes: 9, ..base() }),
        ];
        for (field, other) in variants {
            let t = InProcessTransport::<u64>::new();
            t.post_batch(vec![base(), base(), other.clone(), base()]).unwrap();
            assert_eq!(t.run_count(), 3, "{field}");
            let back = t.read_from(0).unwrap();
            assert_eq!(back.len(), 4);
            let p = &back[2];
            assert_eq!(
                (&p.from, &*p.phase, p.message, p.elements, p.bytes),
                (&other.from, &*other.phase, other.message, other.elements, other.bytes),
                "{field}"
            );
        }
        // A round tick seals the run even when nothing else changes.
        let t = InProcessTransport::<u64>::new();
        t.post_batch(vec![base(), base()]).unwrap();
        t.advance_round().unwrap();
        t.post_batch(vec![base()]).unwrap();
        assert_eq!(t.run_count(), 2);
        assert_eq!(t.read_round(1).unwrap()[0].round, 1);
        // Only the member index differing does not.
        t.post_batch(vec![PostRecord { message: 1, ..rec(9, "a") }]).unwrap();
        assert_eq!(t.run_count(), 2);
    }

    /// Indices made of segments `(first, len, step, descending)`, so
    /// that long spans, short ones and seams that may merge all occur.
    fn segments() -> impl proptest::strategy::Strategy<Value = Vec<usize>> {
        use proptest::prelude::*;
        prop::collection::vec((0..8usize, 1..9usize, 0..2usize, any::<bool>()), 0..8).prop_map(
            |segments| {
                segments
                    .into_iter()
                    .flat_map(|(first, len, step, descending)| {
                        (0..len).map(move |k| {
                            if descending {
                                first + len - k
                            } else {
                                first + step * k
                            }
                        })
                    })
                    .collect()
            },
        )
    }

    /// Every sub-range of `speakers` against the same range of `want`.
    fn same_indices(speakers: &Speakers, want: &[usize]) -> Result<(), String> {
        if speakers.len() != want.len() {
            return Err(format!("len {} != {}", speakers.len(), want.len()));
        }
        for a in 0..=want.len() + 1 {
            for b in a..=want.len() + 2 {
                let got: Vec<usize> = speakers.range(a..b).collect();
                let hi = b.min(want.len());
                if got != want.get(a.min(hi)..hi).unwrap_or_default() {
                    return Err(format!("range {a}..{b}: got {got:?}"));
                }
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        #[test]
        fn speakers_iterate_back_what_was_appended(
            indices in segments(),
            chunks in proptest::collection::vec(0..7usize, 0..12),
        ) {
            let pushed = Speakers::from(&indices[..]);
            proptest::prop_assert!(pushed.span_count() <= indices.len());
            if let Err(e) = same_indices(&pushed, &indices) {
                proptest::prop_assert!(false, "pushed: {e}");
            }
            // The same indices, span-wise in chunks of the drawn sizes.
            let (mut extended, mut rest) = (Speakers::new(), &indices[..]);
            for size in chunks.into_iter().chain([usize::MAX]) {
                let (chunk, later) = rest.split_at(size.min(rest.len()));
                extended.extend(&Speakers::from(chunk));
                rest = later;
            }
            if let Err(e) = same_indices(&extended, &indices) {
                proptest::prop_assert!(false, "extended: {e}");
            }
        }

        #[test]
        fn within_keeps_the_positions_whose_index_is_in_range(
            indices in segments(),
            lo in 0..12usize,
            len in 0..8usize,
        ) {
            // Posting by posting: the maximal stretches of positions
            // whose index lies in `lo..lo + len`.
            let members = lo..lo + len;
            let mut want: Vec<(usize, Vec<usize>)> = Vec::new();
            for (pos, &index) in indices.iter().enumerate() {
                if !members.contains(&index) {
                    continue;
                }
                match want.last_mut() {
                    Some((start, run)) if *start + run.len() == pos => run.push(index),
                    _ => want.push((pos, vec![index])),
                }
            }
            let got = Speakers::from(&indices[..]).within(members);
            proptest::prop_assert_eq!(got.len(), want.len());
            for ((start, run), (want_start, want_run)) in got.iter().zip(&want) {
                proptest::prop_assert_eq!(start, want_start);
                if let Err(e) = same_indices(run, want_run) {
                    proptest::prop_assert!(false, "stretch at {start}: {e}");
                }
            }
        }
    }

    #[test]
    fn a_committee_step_is_one_span_and_a_member_major_run_one_per_member() {
        let step: Vec<usize> = (0..512).collect();
        assert_eq!(Speakers::from(&step[..]).span_count(), 1);
        let member_major: Vec<usize> = (0..512).flat_map(|i| [i; 258]).collect();
        let speakers = Speakers::from(&member_major[..]);
        assert!(speakers.span_count() <= 512);
        assert_eq!(speakers.len(), 512 * 258);
        assert!(speakers.range(258 * 7 - 1..258 * 7 + 1).eq([6, 7]));
        // A step repeated is one span per repetition.
        let mut repeated = Speakers::new();
        for _ in 0..3 {
            repeated.extend(&Speakers::from(&step[..]));
        }
        assert_eq!((repeated.len(), repeated.span_count()), (3 * 512, 3));
    }

    #[test]
    fn a_span_continued_across_extend_calls_merges() {
        let mut speakers = Speakers::new();
        for chunk in [&[0, 1, 2][..], &[3, 4], &[5], &[6, 7, 8, 9]] {
            speakers.extend(&Speakers::from(chunk));
        }
        assert_eq!(speakers.span_count(), 1);
        assert!(speakers.iter().eq(0..10));
        // A repeat after a single index settles the step at 0 and goes on.
        let mut repeats = Speakers::from(&[4][..]);
        repeats.extend(&Speakers::from(&[4, 4, 4][..]));
        assert_eq!((repeats.len(), repeats.span_count()), (4, 1));
        // A break does not merge.
        repeats.extend(&Speakers::from(&[5, 6][..]));
        assert_eq!(repeats.span_count(), 2);
        assert!(repeats.iter().eq([4, 4, 4, 4, 5, 6]));
    }

    #[test]
    fn wire_roundtrip_primitives() {
        let mut out = Vec::new();
        put_u64(&mut out, 0xDEAD_BEEF_0BAD_F00D);
        put_str(&mut out, "offline/1-beaver").unwrap();
        put_bytes(&mut out, &[1, 2, 3]).unwrap();
        let mut cur = WireCursor::new(&out);
        assert_eq!(cur.u64().unwrap(), 0xDEAD_BEEF_0BAD_F00D);
        assert_eq!(cur.str().unwrap(), "offline/1-beaver");
        assert_eq!(cur.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(cur.remaining(), 0);
        assert!(cur.u8().is_err());
    }
}
