//! The bulletin board: authenticated broadcast with metering.
//!
//! In the YOSO model every message — point-to-point included — is
//! posted to a public board (encrypted to its recipient when private),
//! so broadcast and P2P cost the same (§3.3). The board is therefore
//! the *single* communication channel of the protocol, and metering
//! postings measures the protocol's entire communication.
//!
//! The board itself is a thin façade over a pluggable
//! [`BoardTransport`]: the default [`InProcessTransport`] keeps
//! postings in this process in a run-length, round-indexed log; the
//! [`crate::tcp`] backend talks to a `board-server` process so
//! committee drivers and auditors can run as separate OS processes.
//! Metering stays local to the posting process either way.

use std::sync::Arc;

use crate::metrics::CommMeter;
use crate::role::RoleId;
use crate::transport::{
    BoardError, BoardTransport, InProcessTransport, PostRecord, PostRun, WireMessage,
};

/// One posting on the board.
#[derive(Debug, Clone)]
pub struct Posting<M> {
    /// The posting round.
    pub round: u64,
    /// The author role.
    pub from: RoleId,
    /// The protocol phase the post was metered under. Shared, not
    /// owned: every posting of a phase aliases one allocation, so
    /// cloning a posting (or a whole round slice) never copies the
    /// label.
    pub phase: Arc<str>,
    /// The message payload.
    pub message: M,
    /// Metered size in ring elements (travels with the posting so
    /// remote auditor processes can rebuild the communication meter).
    pub elements: u64,
    /// Metered size in bytes.
    pub bytes: u64,
}

/// An append-only bulletin board carrying messages of type `M`,
/// shared between the simulated roles.
///
/// Every post records its size with the [`CommMeter`] under the
/// supplied phase label; experiments read the meter, tests read the
/// postings. Posting and round methods are fallible because the
/// backing [`BoardTransport`] may be remote; the in-process backend
/// never fails.
pub struct BulletinBoard<M> {
    transport: Arc<dyn BoardTransport<M>>,
    meter: CommMeter,
}

impl<M> std::fmt::Debug for BulletinBoard<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BulletinBoard")
            .field("backend", &self.transport.backend_name())
            .finish_non_exhaustive()
    }
}

impl<M> Clone for BulletinBoard<M> {
    fn clone(&self) -> Self {
        BulletinBoard {
            transport: Arc::clone(&self.transport),
            meter: self.meter.clone(),
        }
    }
}

impl<M: Clone + PartialEq + Send + Sync + 'static> Default for BulletinBoard<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Clone + PartialEq + Send + Sync + 'static> BulletinBoard<M> {
    /// Creates an empty in-process board with a fresh meter.
    pub fn new() -> Self {
        Self::with_transport(Arc::new(InProcessTransport::new()))
    }
}

impl<M: Clone + Send + Sync + 'static> BulletinBoard<M> {
    /// Creates a board over an explicit transport backend.
    pub fn with_transport(transport: Arc<dyn BoardTransport<M>>) -> Self {
        BulletinBoard { transport, meter: CommMeter::new() }
    }
}

impl<M: WireMessage + Clone + Send + Sync + 'static> BulletinBoard<M> {
    /// Connects to a remote `board-server` at `addr` with the default
    /// [`crate::tcp::TcpOptions`] (connect retry + I/O timeouts).
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::Io`] if the server stays unreachable past
    /// the retry budget.
    pub fn connect_tcp(addr: std::net::SocketAddr) -> Result<Self, BoardError> {
        Self::connect_tcp_with(addr, crate::tcp::TcpOptions::default())
    }

    /// Like [`BulletinBoard::connect_tcp`] with explicit
    /// [`crate::tcp::TcpOptions`] — the hook for tuning the retry
    /// budget, I/O timeouts or frame-chunking thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`BoardError::Io`] if the server stays unreachable past
    /// the retry budget.
    pub fn connect_tcp_with(
        addr: std::net::SocketAddr,
        opts: crate::tcp::TcpOptions,
    ) -> Result<Self, BoardError> {
        let t = crate::tcp::TcpTransport::connect(addr, opts)?;
        Ok(Self::with_transport(Arc::new(t)))
    }
}

impl<M> BulletinBoard<M> {
    /// The communication meter recording all posts.
    pub fn meter(&self) -> &CommMeter {
        &self.meter
    }

    /// A short label naming the transport backend (diagnostics).
    pub fn backend_name(&self) -> &'static str {
        self.transport.backend_name()
    }

    /// The current round.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn round(&self) -> Result<u64, BoardError> {
        self.transport.round()
    }

    /// Advances to the next round (the synchronous model's clock tick).
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn advance_round(&self) -> Result<u64, BoardError> {
        self.transport.advance_round()
    }

    /// Posts a message, recording `elements` ring elements /
    /// `bytes` bytes of traffic under `phase`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn post(
        &self,
        from: RoleId,
        message: M,
        phase: &str,
        elements: u64,
        bytes: u64,
    ) -> Result<(), BoardError> {
        let phase = self.meter.record_many(phase, elements, bytes, 1);
        let record = PostRecord { from, phase, message, elements, bytes };
        self.transport.post_stream(&mut std::iter::once(record)).map(|_| ())
    }

    /// Posts a batch of same-sized messages from one role under one
    /// phase, taking the transport's write lock (or sending one TCP
    /// frame) **once** for the whole batch. The phase label is the
    /// meter's interned one, shared by every posting of the phase, and
    /// in-process appends are a monomorphic slice loop — no
    /// per-message allocation or dispatch.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn post_batch(
        &self,
        from: RoleId,
        phase: &str,
        messages: &[M],
        elements_each: u64,
        bytes_each: u64,
    ) -> Result<(), BoardError>
    where
        M: Clone,
    {
        // An empty batch meters nothing: registering its phase would
        // list a phase no posting carries.
        if messages.is_empty() {
            return Ok(());
        }
        let count = messages.len() as u64;
        let shared = self.meter.record_many(
            phase,
            elements_each * count,
            bytes_each * count,
            count,
        );
        self.transport.post_slice(&from, &shared, messages, elements_each, bytes_each)
    }

    /// Posts whole committee steps: for each run, every member of its
    /// [`crate::Speakers`] posts the run's message under its phase at
    /// its per-posting size. All runs of one call land in **one**
    /// transport call (one lock acquisition, or one TCP flush), and each
    /// run costs one meter update however many members it has — the
    /// replay path of the parallel engine's post buffers; the in-process
    /// log copies its member spans, not one index per member. A run with
    /// no members meters and posts nothing.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn post_run(&self, runs: &[PostRun<'_, M>]) -> Result<(), BoardError>
    where
        M: Clone,
    {
        let mut posts = 0;
        for run in runs {
            let count = run.members.len() as u64;
            if count > 0 {
                self.meter.record_many(run.phase, run.elements * count, run.bytes * count, count);
                posts += count;
            }
        }
        if posts == 0 {
            return Ok(());
        }
        self.transport.post_run(runs)
    }

    /// Number of postings so far.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn len(&self) -> Result<usize, BoardError> {
        self.transport.len()
    }

    /// Whether the board is empty.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn is_empty(&self) -> Result<bool, BoardError> {
        Ok(self.len()? == 0)
    }

    /// Snapshot of all postings (clones).
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn postings(&self) -> Result<Vec<Posting<M>>, BoardError> {
        self.transport.read_from(0)
    }

    /// Snapshot of the postings made in `round` — `O(round size)`, via
    /// the transport's per-round index.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn postings_in_round(&self, round: u64) -> Result<Vec<Posting<M>>, BoardError> {
        self.transport.read_round(round)
    }

    /// Applies `f` to each posting without cloning (in-process
    /// backends iterate under the read lock).
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn for_each<F: FnMut(&Posting<M>)>(&self, mut f: F) -> Result<(), BoardError> {
        self.transport.for_each(&mut f)
    }

    /// Applies `f` to each posting of `round` without cloning and
    /// without scanning other rounds.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn for_each_in_round<F: FnMut(&Posting<M>)>(
        &self,
        round: u64,
        mut f: F,
    ) -> Result<(), BoardError> {
        self.transport.for_each_in_round(round, &mut f)
    }

    /// Per-phase communication stats rebuilt from the transcript, in
    /// label order — the cross-worker metering aggregation path. Every
    /// posting carries its metered `elements`/`bytes`, so a worker
    /// whose local [`CommMeter`] saw only its own share of the posts
    /// reconstructs exactly what a single-process
    /// [`CommMeter::phases`] would report. Folded one round at a time
    /// so the log is never materialized whole (in process nothing is
    /// cloned; a remote backend ships one round per read instead of one
    /// frame holding the entire history). The caller must know the
    /// transcript is complete: rounds `0..=round()` are read once each.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn transcript_phases(
        &self,
    ) -> Result<Vec<(String, crate::metrics::PhaseStats)>, BoardError> {
        let mut by_phase = PhaseTable::new();
        for round in 0..=self.round()? {
            self.for_each_in_round(round, |p| tally(&mut by_phase, p))?;
        }
        Ok(by_phase.into_iter().collect())
    }

    /// Opens a cursor-based subscription: each [`BoardCursor::poll`]
    /// returns only the postings appended since the previous poll, so
    /// a long-lived reader never re-clones history.
    pub fn subscribe(&self) -> BoardCursor<M> {
        BoardCursor { transport: Arc::clone(&self.transport), pos: 0 }
    }

    /// Blocks until the board holds at least `target` postings and
    /// returns the observed length. This is the worker-mode
    /// synchronization primitive: a role-sharded worker waits for the
    /// board to reach the canonical position of its next posting run
    /// before appending, so the global posting order is identical to a
    /// single-process run.
    ///
    /// Polls with a short spin-then-sleep backoff (the in-process
    /// backend resolves in the spin window; TCP backends settle into
    /// millisecond sleeps).
    ///
    /// # Errors
    ///
    /// Propagates transport failures, or [`BoardError::Protocol`] if
    /// `timeout` elapses first (a peer worker died or desynced).
    pub fn wait_len_at_least(
        &self,
        target: usize,
        // lint:allow(determinism): the timeout only bounds polling; no
        // wall-clock value is read into the posting log.
        timeout: std::time::Duration,
    ) -> Result<usize, BoardError> {
        wait_until(timeout, || {
            let len = self.len()?;
            Ok(if len >= target { Some(len) } else { None })
        })
        .map_err(|e| match e {
            WaitError::TimedOut => BoardError::Protocol(format!(
                "timed out waiting for board length >= {target} (a peer worker \
                 may have crashed or fallen behind)"
            )),
            WaitError::Board(b) => b,
        })
    }

    /// Blocks until the board's round clock reaches at least `round`
    /// and returns the observed round. Workers park here at each phase
    /// boundary: the round tick (issued by the leader worker once all
    /// of the round's postings have landed) *is* the YOSO handoff, so
    /// no side channel is needed to release the barrier.
    ///
    /// # Errors
    ///
    /// Propagates transport failures, or [`BoardError::Protocol`] if
    /// `timeout` elapses first.
    pub fn wait_round_at_least(
        &self,
        round: u64,
        // lint:allow(determinism): the timeout only bounds polling; no
        // wall-clock value is read into the posting log.
        timeout: std::time::Duration,
    ) -> Result<u64, BoardError> {
        wait_until(timeout, || {
            let r = self.round()?;
            Ok(if r >= round { Some(r) } else { None })
        })
        .map_err(|e| match e {
            WaitError::TimedOut => BoardError::Protocol(format!(
                "timed out waiting for board round >= {round} (the leader \
                 worker may have crashed before ticking the round clock)"
            )),
            WaitError::Board(b) => b,
        })
    }
}

enum WaitError {
    TimedOut,
    Board(BoardError),
}

/// Polls `probe` with spin-then-sleep backoff until it yields a value
/// or `timeout` elapses. First ~64 probes yield the CPU only (the
/// in-process fast path), then sleeps escalate 1ms → 20ms.
fn wait_until<T>(
    // lint:allow(determinism): timing here decides only *when* we give
    // up waiting, never *what* gets posted — a run that doesn't time
    // out produces the same transcript regardless of poll timing.
    timeout: std::time::Duration,
    mut probe: impl FnMut() -> Result<Option<T>, BoardError>,
) -> Result<T, WaitError> {
    // lint:allow(determinism): see the `timeout` parameter — timeout
    // bookkeeping only, nothing time-derived reaches the board.
    use std::time::{Duration, Instant};
    let start = Instant::now();
    let mut spins = 0u32;
    loop {
        match probe().map_err(WaitError::Board)? {
            Some(v) => return Ok(v),
            None => {
                if start.elapsed() >= timeout {
                    return Err(WaitError::TimedOut);
                }
                if spins < 64 {
                    spins += 1;
                    std::thread::yield_now();
                } else {
                    let ms = (u64::from(spins) / 64).min(20);
                    spins = spins.saturating_add(64);
                    std::thread::sleep(Duration::from_millis(ms.max(1)));
                }
            }
        }
    }
}

type PhaseTable = std::collections::BTreeMap<String, crate::metrics::PhaseStats>;

/// Adds one posting to its phase's stats, allocating the key only the
/// first time a label is seen.
fn tally<M>(by_phase: &mut PhaseTable, p: &Posting<M>) {
    let one =
        crate::metrics::PhaseStats { elements: p.elements, bytes: p.bytes, messages: 1 };
    match by_phase.get_mut(&*p.phase) {
        Some(s) => s.merge(&one),
        None => {
            by_phase.insert(p.phase.to_string(), one);
        }
    }
}

/// The seed of the 64-bit FNV-1a hash over transcript lines.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a multiplier.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The transcript-hash folder: one pass over a finished board, round
/// by round and clone-free, folding every posting into a 64-bit FNV-1a
/// hash of its canonical transcript line (`round|from|phase|message`,
/// the `board-stats --dump` format) and into per-phase communication
/// stats. Two boards with equal hashes hold byte-identical transcripts;
/// the tests, the scale profile and the benchmark's fleet-vs-solo gate
/// compare runs this way, outside any timed region. The engine itself
/// never hashes — it reports stats from the meter or from
/// [`BulletinBoard::transcript_phases`].
#[derive(Debug, Clone)]
pub struct PhaseAccumulator {
    by_phase: PhaseTable,
    postings: u64,
    hash: u64,
    line: String,
}

impl Default for PhaseAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        PhaseAccumulator {
            by_phase: PhaseTable::new(),
            postings: 0,
            hash: FNV_OFFSET,
            line: String::new(),
        }
    }

    /// Folds one posting into the stats and the transcript hash.
    fn absorb<M: std::fmt::Debug>(&mut self, p: &Posting<M>) {
        use std::fmt::Write as _;
        tally(&mut self.by_phase, p);
        self.line.clear();
        let _ = writeln!(self.line, "{}|{}|{}|{:?}", p.round, p.from, p.phase, p.message);
        for &b in self.line.as_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.postings += 1;
    }

    /// Absorbs the whole transcript of `board`: every sealed round and
    /// the currently open one, after the final post.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn finish<M: Clone + Send + Sync + std::fmt::Debug + 'static>(
        &mut self,
        board: &BulletinBoard<M>,
    ) -> Result<(), BoardError> {
        for round in 0..=board.round()? {
            board.for_each_in_round(round, |p| self.absorb(p))?;
        }
        Ok(())
    }

    /// Number of postings absorbed so far.
    pub fn postings(&self) -> u64 {
        self.postings
    }

    /// The FNV-1a 64 hash of every absorbed transcript line.
    pub fn transcript_hash(&self) -> u64 {
        self.hash
    }

    /// Per-phase stats in label order — the same shape
    /// [`BulletinBoard::transcript_phases`] returns.
    pub fn phases(&self) -> Vec<(String, crate::metrics::PhaseStats)> {
        self.by_phase.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }
}

/// A stateful reader over a board transport: remembers how far it has
/// read and fetches only the suffix on each poll.
pub struct BoardCursor<M> {
    transport: Arc<dyn BoardTransport<M>>,
    pos: usize,
}

impl<M> std::fmt::Debug for BoardCursor<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoardCursor")
            .field("backend", &self.transport.backend_name())
            .field("pos", &self.pos)
            .finish_non_exhaustive()
    }
}

impl<M> BoardCursor<M> {
    /// Postings appended since the last poll (empty if none).
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn poll(&mut self) -> Result<Vec<Posting<M>>, BoardError> {
        let batch = self.transport.read_from(self.pos)?;
        self.pos += batch.len();
        Ok(batch)
    }

    /// Number of postings consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Speakers;

    #[test]
    fn post_and_read_back() {
        let board: BulletinBoard<String> = BulletinBoard::new();
        assert!(board.is_empty().unwrap());
        board.post(RoleId::new("c1", 0), "hello".into(), "offline", 2, 16).unwrap();
        board.advance_round().unwrap();
        board.post(RoleId::new("c1", 1), "world".into(), "online", 1, 8).unwrap();
        assert_eq!(board.len().unwrap(), 2);
        assert_eq!(board.round().unwrap(), 1);
        let r0 = board.postings_in_round(0).unwrap();
        assert_eq!(r0.len(), 1);
        assert_eq!(r0[0].message, "hello");
        assert_eq!(r0[0].elements, 2);
        let r1 = board.postings_in_round(1).unwrap();
        assert_eq!(r1[0].from, RoleId::new("c1", 1));
    }

    #[test]
    fn metering_accumulates() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        board.post(RoleId::new("c", 0), 1, "offline", 3, 24).unwrap();
        board.post(RoleId::new("c", 1), 2, "offline", 5, 40).unwrap();
        board.post(RoleId::new("c", 2), 3, "online", 1, 8).unwrap();
        let stats = board.meter().phase("offline");
        assert_eq!(stats.elements, 8);
        assert_eq!(stats.bytes, 64);
        assert_eq!(stats.messages, 2);
        assert_eq!(board.meter().phase("online").elements, 1);
        assert_eq!(board.meter().total().elements, 9);
    }

    #[test]
    fn board_clones_share_state() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        let board2 = board.clone();
        board.post(RoleId::new("c", 0), 7, "x", 1, 8).unwrap();
        assert_eq!(board2.len().unwrap(), 1);
        assert_eq!(board2.meter().total().elements, 1);
    }

    #[test]
    fn post_batch_matches_per_post_metering_and_log() {
        let a: BulletinBoard<u64> = BulletinBoard::new();
        let b: BulletinBoard<u64> = BulletinBoard::new();
        let from = RoleId::new("c", 3);
        for m in 0..5u64 {
            a.post(from.clone(), m, "offline/x", 2, 16).unwrap();
        }
        b.post_batch(from, "offline/x", &[0, 1, 2, 3, 4], 2, 16).unwrap();
        assert_eq!(a.meter().phase("offline/x"), b.meter().phase("offline/x"));
        let (pa, pb) = (a.postings().unwrap(), b.postings().unwrap());
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert_eq!((x.round, &x.from, &*x.phase, x.message), (y.round, &y.from, &*y.phase, y.message));
        }
    }

    /// The fields of a posting the transcript and the meter depend on.
    fn line(p: &Posting<u64>) -> (u64, String, String, u64, u64, u64) {
        (p.round, p.from.to_string(), p.phase.to_string(), p.message, p.elements, p.bytes)
    }

    #[test]
    fn post_run_matches_per_post_metering_and_log() {
        let a: BulletinBoard<u64> = BulletinBoard::new();
        let b: BulletinBoard<u64> = BulletinBoard::new();
        let committee = crate::Committee::honest("off-1", 4);
        // Member 2 speaks twice; the second run has another size.
        let steps: [(&str, u64, u64, &[usize]); 2] =
            [("offline/x", 7, 2, &[0, 1, 2, 2, 3]), ("offline/y", 7, 3, &[3, 0])];
        for (phase, message, elements, members) in steps {
            for &i in members {
                a.post(committee.role(i), message, phase, elements, 8 * elements).unwrap();
            }
        }
        let speakers: Vec<Speakers> = steps.iter().map(|step| Speakers::from(step.3)).collect();
        let runs: Vec<PostRun<'_, u64>> = steps
            .iter()
            .zip(&speakers)
            .map(|((phase, message, elements, _), members)| PostRun {
                committee: &committee.name,
                phase,
                message,
                elements: *elements,
                bytes: 8 * elements,
                members,
            })
            .collect();
        b.post_run(&runs).unwrap();
        assert_eq!(a.meter().phases(), b.meter().phases());
        assert_eq!(b.meter().phase("offline/x").messages, 5);
        let (pa, pb) = (a.postings().unwrap(), b.postings().unwrap());
        assert_eq!(pa.iter().map(line).collect::<Vec<_>>(), pb.iter().map(line).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batches_and_runs_register_no_phase() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        let committee: Arc<str> = Arc::from("c");
        let run = |phase, members| PostRun {
            committee: &committee,
            phase,
            message: &1,
            elements: 1,
            bytes: 8,
            members,
        };
        board.post_batch(RoleId::new("c", 0), "ghost/batch", &[], 1, 8).unwrap();
        let (none, two) = (Speakers::new(), Speakers::from(&[0, 1][..]));
        board.post_run(&[run("ghost/run", &none)]).unwrap();
        board.post_run(&[]).unwrap();
        assert!(board.meter().phases().is_empty());
        assert_eq!(board.meter().phases(), board.transcript_phases().unwrap());
        // An empty run beside a real one changes nothing about the real one.
        board.post_run(&[run("ghost/run", &none), run("real", &two)]).unwrap();
        assert_eq!(board.len().unwrap(), 2);
        assert_eq!(board.meter().phases(), board.transcript_phases().unwrap());
        assert_eq!(board.meter().phases().len(), 1);
    }

    /// A transport that implements the record-level posting methods and
    /// nothing newer, like a wrapper written before `post_run` existed:
    /// runs reach it through the trait's default adapter.
    #[derive(Default)]
    struct RecordLevelOnly(InProcessTransport<u64>);

    impl BoardTransport<u64> for RecordLevelOnly {
        fn post_batch(&self, records: Vec<PostRecord<u64>>) -> Result<(), BoardError> {
            self.0.post_batch(records)
        }
        fn post_stream(
            &self,
            records: &mut dyn Iterator<Item = PostRecord<u64>>,
        ) -> Result<u64, BoardError> {
            self.0.post_stream(records)
        }
        fn post_slice(
            &self,
            from: &RoleId,
            phase: &Arc<str>,
            messages: &[u64],
            elements: u64,
            bytes: u64,
        ) -> Result<(), BoardError> {
            self.0.post_slice(from, phase, messages, elements, bytes)
        }
        fn retain_rounds_from(&self, round: u64) -> Result<(), BoardError> {
            self.0.retain_rounds_from(round)
        }
        fn advance_round(&self) -> Result<u64, BoardError> {
            self.0.advance_round()
        }
        fn round(&self) -> Result<u64, BoardError> {
            self.0.round()
        }
        fn len(&self) -> Result<usize, BoardError> {
            self.0.len()
        }
        fn read_round(&self, round: u64) -> Result<Vec<Posting<u64>>, BoardError> {
            self.0.read_round(round)
        }
        fn read_from(&self, cursor: usize) -> Result<Vec<Posting<u64>>, BoardError> {
            self.0.read_from(cursor)
        }
        fn backend_name(&self) -> &'static str {
            "record-level-only"
        }
    }

    #[test]
    fn adapted_runs_equal_native_runs() {
        // One scripted mix of every posting entry point and round
        // ticks, through the native `post_run` and through the default
        // adapter: same postings, same run structure, same meter.
        fn drive(board: &BulletinBoard<u64>) {
            let committees = [crate::Committee::honest("a", 6), crate::Committee::honest("b", 6)];
            let phases = ["offline/1", "offline/2", "online/3"];
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let mut draw = |below: u64| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) % below
            };
            for _ in 0..200 {
                let c = &committees[draw(2) as usize];
                let phase = phases[draw(3) as usize];
                let (message, elements) = (draw(2), 1 + draw(2));
                match draw(5) {
                    0 => board.post(c.role(draw(6) as usize), message, phase, elements, 8 * elements).unwrap(),
                    1 => board
                        .post_batch(c.role(draw(6) as usize), phase, &[message, message, 1 - message], elements, 8 * elements)
                        .unwrap(),
                    2 => {
                        board.advance_round().unwrap();
                    }
                    _ => {
                        // Two runs per call: arbitrary members (repeats
                        // and the empty list included), then a step.
                        let members: Vec<usize> = (0..draw(5)).map(|_| draw(6) as usize).collect();
                        let members = Speakers::from(&members[..]);
                        let step = Speakers::from(&[0, 1, 2, 3, 4, 5][..]);
                        let run = |members| PostRun {
                            committee: &c.name,
                            phase,
                            message: &message,
                            elements,
                            bytes: 8 * elements,
                            members,
                        };
                        board.post_run(&[run(&members), run(&step)]).unwrap();
                    }
                }
            }
        }
        let native = Arc::new(InProcessTransport::<u64>::new());
        let adapted = Arc::new(RecordLevelOnly::default());
        let a = BulletinBoard::with_transport(Arc::clone(&native) as Arc<dyn BoardTransport<u64>>);
        let b = BulletinBoard::with_transport(Arc::clone(&adapted) as Arc<dyn BoardTransport<u64>>);
        drive(&a);
        drive(&b);
        let (pa, pb) = (native.read_from(0).unwrap(), adapted.read_from(0).unwrap());
        assert!(pa.len() > 400);
        assert_eq!(pa.iter().map(line).collect::<Vec<_>>(), pb.iter().map(line).collect::<Vec<_>>());
        assert_eq!(native.run_count(), adapted.0.run_count());
        assert_eq!(a.meter().phases(), b.meter().phases());
        assert_eq!(a.meter().phases(), a.transcript_phases().unwrap());
    }

    #[test]
    fn phase_accumulator_matches_materialized_log_and_survives_retention() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        for round in 0..3u64 {
            for i in 0..4usize {
                board
                    .post(RoleId::new("c", i), round * 10 + i as u64, "offline/x", 2, 16)
                    .unwrap();
            }
            board.advance_round().unwrap();
        }
        board.post(RoleId::new("c", 9), 99, "online/y", 1, 8).unwrap();
        let mut acc = PhaseAccumulator::new();
        acc.finish(&board).unwrap();

        assert_eq!(acc.phases(), board.transcript_phases().unwrap());
        assert_eq!(acc.phases(), board.meter().phases());
        assert_eq!(acc.postings(), 13);

        // The hash covers payloads: one changed message diverges.
        let other: BulletinBoard<u64> = BulletinBoard::new();
        let mut other_acc = PhaseAccumulator::new();
        other.post(RoleId::new("c", 9), 98, "online/y", 1, 8).unwrap();
        other_acc.finish(&other).unwrap();
        let mut same_acc = PhaseAccumulator::new();
        let same: BulletinBoard<u64> = BulletinBoard::new();
        same.post(RoleId::new("c", 9), 98, "online/y", 1, 8).unwrap();
        same_acc.finish(&same).unwrap();
        assert_eq!(other_acc.transcript_hash(), same_acc.transcript_hash());
        assert_ne!(other_acc.transcript_hash(), acc.transcript_hash());
    }

    #[test]
    fn wait_len_returns_immediately_when_satisfied() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        board.post(RoleId::new("c", 0), 1, "x", 1, 8).unwrap();
        let len = board
            .wait_len_at_least(1, std::time::Duration::from_secs(5))
            .unwrap();
        assert_eq!(len, 1);
    }

    #[test]
    fn wait_len_times_out_with_protocol_error() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        let err = board
            .wait_len_at_least(1, std::time::Duration::from_millis(10))
            .unwrap_err();
        assert!(matches!(err, BoardError::Protocol(_)));
    }

    #[test]
    fn wait_round_unblocks_on_cross_thread_tick() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        let clone = board.clone();
        std::thread::scope(|s| {
            let waiter = s.spawn(move || {
                clone.wait_round_at_least(2, std::time::Duration::from_secs(30))
            });
            board.advance_round().unwrap();
            board.advance_round().unwrap();
            assert_eq!(waiter.join().unwrap().unwrap(), 2);
        });
    }

    #[test]
    fn phases_from_postings_matches_meter() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        board.post(RoleId::new("c", 0), 1, "b/phase", 3, 24).unwrap();
        board.post(RoleId::new("c", 1), 2, "a/phase", 2, 16).unwrap();
        board.post(RoleId::new("c", 2), 3, "a/phase", 5, 40).unwrap();
        assert_eq!(board.transcript_phases().unwrap(), board.meter().phases());
    }

    #[test]
    fn cursor_subscription_sees_only_new_posts() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        let mut cur = board.subscribe();
        board.post(RoleId::new("c", 0), 1, "x", 1, 8).unwrap();
        assert_eq!(cur.poll().unwrap().len(), 1);
        assert!(cur.poll().unwrap().is_empty());
        board.post_batch(RoleId::new("c", 1), "x", &[0, 1, 2, 3], 1, 8).unwrap();
        let batch = cur.poll().unwrap();
        assert_eq!(batch.len(), 4);
        assert_eq!(cur.position(), 5);
    }
}
