//! The bulletin board: authenticated broadcast whose log is the meter.
//!
//! In the YOSO model every message — point-to-point included — is
//! posted to a public board (encrypted to its recipient when private),
//! so broadcast and P2P cost the same (§3.3). The board is therefore
//! the *single* communication channel of the protocol, and its posting
//! log measures the protocol's entire communication: every posting
//! carries its metered size, and [`BulletinBoard::phases`] folds the
//! log into per-phase stats.
//!
//! The board itself is a thin façade over a pluggable
//! [`BoardTransport`]: the default [`InProcessTransport`] keeps
//! postings in this process in a run-length, round-indexed log; the
//! [`crate::tcp`] backend talks to a `board-server` process so
//! committee drivers and auditors can run as separate OS processes.
//! Either way the stats come from the one log every process shares.

use std::sync::Arc;

use crate::metrics::PhaseStats;
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
    /// owned: the postings of a run alias one allocation, so cloning a
    /// posting (or a whole round slice) never copies the label.
    pub phase: Arc<str>,
    /// The message payload.
    pub message: M,
    /// Metered size in ring elements (travels with the posting, so any
    /// reader of the log can fold it into per-phase stats).
    pub elements: u64,
    /// Metered size in bytes.
    pub bytes: u64,
}

/// An append-only bulletin board carrying messages of type `M`,
/// shared between the simulated roles.
///
/// Every post carries its size under the supplied phase label;
/// experiments read the per-phase fold ([`BulletinBoard::phases`]),
/// tests read the postings. Posting and round methods are fallible
/// because the backing [`BoardTransport`] may be remote; the
/// in-process backend never fails.
pub struct BulletinBoard<M> {
    transport: Arc<dyn BoardTransport<M>>,
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
        BulletinBoard { transport: Arc::clone(&self.transport) }
    }
}

impl<M: Clone + PartialEq + Send + Sync + 'static> Default for BulletinBoard<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Clone + PartialEq + Send + Sync + 'static> BulletinBoard<M> {
    /// Creates an empty in-process board.
    pub fn new() -> Self {
        Self::with_transport(Arc::new(InProcessTransport::new()))
    }
}

impl<M: Clone + Send + Sync + 'static> BulletinBoard<M> {
    /// Creates a board over an explicit transport backend.
    pub fn with_transport(transport: Arc<dyn BoardTransport<M>>) -> Self {
        BulletinBoard { transport }
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
        let record = PostRecord { from, phase: Arc::from(phase), message, elements, bytes };
        self.transport.post_stream(&mut std::iter::once(record)).map(|_| ())
    }

    /// Posts a batch of same-sized messages from one role under one
    /// phase, taking the transport's write lock (or sending one TCP
    /// frame) **once** for the whole batch. The phase label is
    /// allocated once for the batch, and in-process appends are a
    /// monomorphic slice loop — no per-message allocation or dispatch.
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
        if messages.is_empty() {
            return Ok(());
        }
        let phase = Arc::from(phase);
        self.transport.post_slice(&from, &phase, messages, elements_each, bytes_each)
    }

    /// Posts whole committee steps: for each run, every member of its
    /// [`crate::Speakers`] posts the run's message under its phase at
    /// its per-posting size. All runs of one call land in **one**
    /// transport call (one lock acquisition, or one TCP flush) — the
    /// replay path of the parallel engine's post buffers; the in-process
    /// log copies its member spans, not one index per member. A run with
    /// no members posts nothing, and a call whose runs are all empty
    /// makes no transport call.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn post_run(&self, runs: &[PostRun<'_, M>]) -> Result<(), BoardError>
    where
        M: Clone,
    {
        if runs.iter().all(|run| run.members.is_empty()) {
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

    /// Per-phase communication stats of every posting on the board, in
    /// label order: the transport's fold over its own log
    /// ([`BoardTransport::phases`]). Every posting carries its metered
    /// `elements`/`bytes`, so the table covers the whole board —
    /// whichever process or worker appended each posting — and a
    /// caller reading it mid-run sees only what has landed so far.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (remote backends only).
    pub fn phases(&self) -> Result<Vec<(String, PhaseStats)>, BoardError> {
        self.transport.phases()
    }

    /// Blocks until the board holds at least `target` postings and
    /// returns the observed length. This is the worker-mode
    /// synchronization primitive: a role-sharded worker waits for the
    /// board to reach the canonical position of its next posting run
    /// before appending, so the global posting order is identical to a
    /// single-process run.
    ///
    /// The in-process backend wakes the waiter when a posting or a
    /// round tick lands; other backends are polled with a short
    /// spin-then-sleep backoff (TCP settles into millisecond sleeps).
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
        self.wait_until(timeout, || {
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
        self.wait_until(timeout, || {
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

impl<M> BulletinBoard<M> {
    /// Probes the board until `probe` yields a value or `timeout`
    /// elapses. Between probes it sleeps on the transport's change
    /// counter where the backend wakes waiters; elsewhere the first ~64
    /// probes yield the CPU only, then sleeps escalate 1ms → 20ms.
    fn wait_until<T>(
        &self,
        // lint:allow(determinism): timing here decides only *when* we
        // give up waiting, never *what* gets posted — a run that doesn't
        // time out produces the same transcript regardless of wake-ups.
        timeout: std::time::Duration,
        mut probe: impl FnMut() -> Result<Option<T>, BoardError>,
    ) -> Result<T, WaitError> {
        // lint:allow(determinism): see the `timeout` parameter — timeout
        // bookkeeping only, nothing time-derived reaches the board.
        use std::time::{Duration, Instant};
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            let seen = self.transport.changes();
            if let Some(v) = probe().map_err(WaitError::Board)? {
                return Ok(v);
            }
            let Some(left) = timeout.checked_sub(start.elapsed()).filter(|d| !d.is_zero()) else {
                return Err(WaitError::TimedOut);
            };
            match seen {
                Some(seen) => self.transport.wait_changed(seen, left),
                None if spins < 64 => {
                    spins += 1;
                    std::thread::yield_now();
                }
                None => {
                    let ms = (u64::from(spins) / 64).min(20);
                    spins = spins.saturating_add(64);
                    std::thread::sleep(Duration::from_millis(ms.max(1)));
                }
            }
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
/// the `board-stats --dump` format). Two boards with equal hashes hold
/// byte-identical transcripts; the tests, the scale profile and the
/// benchmark's fleet-vs-solo gate compare runs this way, outside any
/// timed region. The engine itself never hashes — its per-phase stats
/// are [`BulletinBoard::phases`].
#[derive(Debug, Clone)]
pub struct PhaseAccumulator {
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
        PhaseAccumulator { hash: FNV_OFFSET, line: String::new() }
    }

    /// Folds one posting into the transcript hash.
    fn absorb<M: std::fmt::Debug>(&mut self, p: &Posting<M>) {
        use std::fmt::Write as _;
        self.line.clear();
        let _ = writeln!(self.line, "{}|{}|{}|{:?}", p.round, p.from, p.phase, p.message);
        for &b in self.line.as_bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
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

    /// The FNV-1a 64 hash of every absorbed transcript line.
    pub fn transcript_hash(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Speakers;

    /// `phase`'s row of the board's per-phase table (zero if absent).
    fn phase<M>(board: &BulletinBoard<M>, phase: &str) -> PhaseStats {
        let phases = board.phases().unwrap();
        phases.into_iter().find(|(k, _)| k == phase).map(|(_, s)| s).unwrap_or_default()
    }

    /// The sum of every row of the board's per-phase table.
    fn total<M>(board: &BulletinBoard<M>) -> PhaseStats {
        let mut acc = PhaseStats::default();
        for (_, s) in board.phases().unwrap() {
            acc.merge(&s);
        }
        acc
    }

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
        let stats = phase(&board, "offline");
        assert_eq!(stats.elements, 8);
        assert_eq!(stats.bytes, 64);
        assert_eq!(stats.messages, 2);
        assert_eq!(phase(&board, "online").elements, 1);
        assert_eq!(phase(&board, "nonexistent"), PhaseStats::default());
        assert_eq!(total(&board).elements, 9);
    }

    #[test]
    fn board_clones_share_state() {
        let board: BulletinBoard<u64> = BulletinBoard::new();
        let board2 = board.clone();
        board.post(RoleId::new("c", 0), 7, "x", 1, 8).unwrap();
        assert_eq!(board2.len().unwrap(), 1);
        assert_eq!(total(&board2).elements, 1);
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
        assert_eq!(a.phases().unwrap(), b.phases().unwrap());
        assert_eq!(phase(&b, "offline/x"), PhaseStats { elements: 10, bytes: 80, messages: 5 });
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
        assert_eq!(a.phases().unwrap(), b.phases().unwrap());
        assert_eq!(phase(&b, "offline/x").messages, 5);
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
        assert!(board.phases().unwrap().is_empty());
        // An empty run beside a real one changes nothing about the real one.
        board.post_run(&[run("ghost/run", &none), run("real", &two)]).unwrap();
        assert_eq!(board.len().unwrap(), 2);
        let real = PhaseStats { elements: 2, bytes: 16, messages: 2 };
        assert_eq!(board.phases().unwrap(), vec![("real".to_string(), real)]);
    }

    /// A transport that forwards the trait's required methods and
    /// nothing else, like a wrapper written before `post_run` and the
    /// log fold existed: runs reach it through the trait's default
    /// adapter, and its per-phase table is the default posting fold.
    #[derive(Default)]
    struct RecordLevelOnly(InProcessTransport<u64>);

    impl BoardTransport<u64> for RecordLevelOnly {
        fn post_batch(&self, records: Vec<PostRecord<u64>>) -> Result<(), BoardError> {
            self.0.post_batch(records)
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
        // adapter: same postings, same run structure, and the same
        // per-phase table from the run fold and the posting fold.
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
        assert_eq!(a.phases().unwrap(), b.phases().unwrap());
        assert_eq!(total(&a).messages, pa.len() as u64);
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

        let x = PhaseStats { elements: 24, bytes: 192, messages: 12 };
        let y = PhaseStats { elements: 1, bytes: 8, messages: 1 };
        let want = vec![("offline/x".to_string(), x), ("online/y".to_string(), y)];
        assert_eq!(board.phases().unwrap(), want);

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
        // The posting fold (the trait default, through a wrapper that
        // forwards only record-level reads) and the run fold agree, in
        // label order, with a phase that recurs across a round tick.
        let runs = BulletinBoard::<u64>::new();
        let postings = BulletinBoard::with_transport(
            Arc::new(RecordLevelOnly::default()) as Arc<dyn BoardTransport<u64>>
        );
        for board in [&runs, &postings] {
            board.post(RoleId::new("c", 0), 1, "b/phase", 3, 24).unwrap();
            board.post(RoleId::new("c", 1), 2, "a/phase", 2, 16).unwrap();
            board.advance_round().unwrap();
            board.post(RoleId::new("c", 2), 3, "a/phase", 5, 40).unwrap();
            board.post(RoleId::new("c", 3), 1, "b/phase", 3, 24).unwrap();
        }
        let a = PhaseStats { elements: 7, bytes: 56, messages: 2 };
        let b = PhaseStats { elements: 6, bytes: 48, messages: 2 };
        let want = vec![("a/phase".to_string(), a), ("b/phase".to_string(), b)];
        assert_eq!(runs.phases().unwrap(), want);
        assert_eq!(postings.phases().unwrap(), want);
    }
}
