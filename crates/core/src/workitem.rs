//! Role-sharded execution: role partitions and the sharded board
//! façade that keeps an N-worker run's transcript byte-identical to a
//! single-process run.
//!
//! # Model
//!
//! Every phase loop in the pipeline enumerates per-role work — "member
//! `i` of committee `c` contributes to step `s` in round `r`". A
//! [`RolePartition`] assigns each worker process a contiguous range of
//! committee indices; the worker *replicates* all
//! cheap value computation (field arithmetic, encryptions — required
//! so every worker holds the full protocol state) but produces and
//! verifies NIZK proofs, the dominant cost, only for the members it
//! owns, and appends only its owned members' posts to the board.
//!
//! # One posting path
//!
//! Core posts one way. Every protocol step — a committee's members,
//! the setup dealer, the online clients — records its postings into a
//! `PostBuffer`, one run per stretch of postings that share a
//! descriptor and an author, and hands the buffer to the run's one
//! [`ShardedBoard`]. Who appends what is decided there and nowhere
//! else: a members' run is split at the worker's role range, a leader's
//! run goes whole to the leader. Every protocol entry point takes that
//! board view, so a caller running several steps by hand owns the view
//! and ends the run with [`ShardedBoard::finish`], which hands back the
//! run's reads: the per-phase fold of the log and the round count.
//!
//! # Determinism invariant
//!
//! Board messages carry only structural data (post kind + element
//! counts), so transcript identity reduces to producing the identical
//! *sequence* of posts. The [`ShardedBoard`] guarantees that by
//! accounting a canonical global position for every post — owned or
//! not — and appending each worker's owned posts in position order,
//! waiting on the board length until the positions below have landed.
//! Per-member child seeds (drawn unconditionally for all `n` members
//! from the phase RNG) make every member's drawn values independent of
//! whether its proofs were skipped, so all workers compute identical
//! values, outputs and validity flags.
//!
//! # Round clock as barrier
//!
//! Workers synchronize *only* through the board: at each phase
//! boundary every worker flushes its pending posts, the leader (the
//! worker owning role 0) waits for the round's full posting count and
//! ticks the round clock, and everyone else parks on
//! `wait_round_at_least` — the YOSO handoff itself is the barrier, no
//! side channel exists.

use std::sync::{Arc, Mutex};

use yoso_runtime::{BulletinBoard, PhaseStats, PostRun, Speakers};

use crate::messages::{self, Post};
use crate::parallel::{Author, PostBuffer};
use crate::ProtocolError;

/// How long a worker waits on a peer's posts or the leader's round
/// tick before declaring the run dead. Generous: covers a slow peer
/// doing a full phase of proof work, not ordinary scheduling jitter.
const WAIT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(120);

/// A contiguous range of committee-member indices owned by one worker.
///
/// The default ([`RolePartition::solo`]) owns every role — the
/// single-process mode, with zero behavioral difference from the
/// pre-sharding engine. [`RolePartition::of_workers`] splits `0..n`
/// into `total` contiguous, disjoint, covering ranges (some possibly
/// empty when `total > n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolePartition {
    lo: usize,
    hi: usize,
    solo: bool,
}

impl Default for RolePartition {
    fn default() -> Self {
        RolePartition::solo()
    }
}

impl RolePartition {
    /// The single-process partition: owns every role of every
    /// committee and acts as leader.
    pub fn solo() -> Self {
        RolePartition { lo: 0, hi: usize::MAX, solo: true }
    }

    /// The partition owning exactly the member indices `lo..hi`
    /// (half-open; an empty range is allowed and owns nothing).
    pub fn range(lo: usize, hi: usize) -> Self {
        RolePartition { lo, hi: hi.max(lo), solo: false }
    }

    /// The range worker `worker` (of `total` workers) owns out of `n`
    /// roles: `⌊worker·n/total⌋ .. ⌊(worker+1)·n/total⌋`. Ranges are
    /// contiguous, disjoint and cover `0..n`; when `total > n` some
    /// workers own nothing.
    pub fn of_workers(worker: usize, total: usize, n: usize) -> Self {
        let total = total.max(1);
        let worker = worker.min(total - 1);
        RolePartition::range(worker * n / total, (worker + 1) * n / total)
    }

    /// Whether this partition owns committee-member index `role`.
    pub fn owns(&self, role: usize) -> bool {
        self.solo || (self.lo <= role && role < self.hi)
    }

    /// Whether this is the single-process partition.
    pub fn is_solo(&self) -> bool {
        self.solo
    }

    /// Whether this worker drives leader-only work: dealer/client
    /// posts and the round-clock ticks. Exactly one worker of any
    /// [`Self::of_workers`] split is leader — the one whose non-empty
    /// range starts at role 0 (a `total > n` split gives worker 0 the
    /// empty range `0..0`, which is *not* the leader).
    pub fn is_leader(&self) -> bool {
        self.solo || (self.lo == 0 && self.hi > 0)
    }

    /// Start of the owned range (inclusive).
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// End of the owned range (exclusive).
    pub fn hi(&self) -> usize {
        self.hi
    }
}

/// A run of owned posts not yet appended.
#[derive(Debug)]
struct PendingRun {
    /// Canonical global position of the run's first post; the rest
    /// follow consecutively.
    start: u64,
    committee: Arc<str>,
    phase: Arc<str>,
    message: Post,
    elements: u64,
    members: Speakers,
}

impl PendingRun {
    fn as_run(&self) -> PostRun<'_, Post> {
        PostRun {
            committee: &self.committee,
            phase: &self.phase,
            message: &self.message,
            elements: self.elements,
            bytes: messages::to_bytes(self.elements),
            members: &self.members,
        }
    }
}

/// A run accounted in the current round, whoever appends it: what an
/// expired wait names as the postings it was waiting for.
#[derive(Debug)]
struct AccountedRun {
    start: u64,
    committee: Arc<str>,
    phase: Arc<str>,
    members: Speakers,
}

/// Mutable position/round accounting of one worker's board view.
#[derive(Debug, Default)]
struct ShardState {
    /// Owned runs not yet appended. Always sorted: positions are
    /// assigned in call order.
    pending: Vec<PendingRun>,
    /// Every run accounted since the last round barrier, in position
    /// order.
    accounted: Vec<AccountedRun>,
    /// Canonical number of posts accounted so far across *all*
    /// workers (every worker replicates the full post sequence, so
    /// local accounting equals the global count).
    pos: u64,
    /// The round this worker believes the board is in.
    round: u64,
}

impl ShardState {
    /// Queues `members`, the postings of `run` from position `start` on
    /// that this worker appends, for the next barrier.
    fn queue(&mut self, start: u64, run: &PostRun<'_, Post>, members: Speakers) {
        self.pending.push(PendingRun {
            start,
            committee: Arc::clone(run.committee),
            phase: Arc::from(run.phase),
            message: *run.message,
            elements: run.elements,
            members,
        });
    }
}

/// What a run's board view hands back when the run ends
/// ([`ShardedBoard::finish`]): the reads of the complete log.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTally {
    /// Per-phase communication of the whole board, every worker's
    /// postings included.
    pub phases: Vec<(String, PhaseStats)>,
    /// The board's round count.
    pub rounds: u64,
}

/// A run's one view of the bulletin board, for the worker owning
/// `partition` — every protocol step posts through it.
///
/// In solo mode each flushed buffer lands on the board at once, as one
/// transport call, and the barrier only ticks the clock. In sharded mode
/// the worker accounts a global position for every post, buffers the
/// posts it owns, and appends them in position order at the next
/// round barrier, waiting on the board length until lower positions
/// (owned by peer workers) have landed. Deadlock-free: pending runs
/// partition the round's position space, every wait points strictly
/// backward, and all workers pass the same number of barriers.
pub struct ShardedBoard<'a> {
    board: &'a BulletinBoard<Post>,
    partition: RolePartition,
    threads: usize,
    state: Mutex<ShardState>,
}

impl std::fmt::Debug for ShardedBoard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBoard")
            .field("partition", &self.partition)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl<'a> ShardedBoard<'a> {
    /// Wraps `board` for one worker of a sharded run.
    ///
    /// A sharded run must start from a **fresh board** (empty, round
    /// 0): every worker replicates the canonical post sequence from
    /// the beginning, so its accounting is anchored at position 0
    /// regardless of when it joins. That makes joining race-free — a
    /// worker connecting after the leader has already posted its first
    /// setup records still accounts those records at their true
    /// positions. A solo view ([`RolePartition::solo`]) accounts
    /// nothing, so any number of them may post to one board in turn.
    ///
    /// The view computes on the host's cores ([`Self::with_threads`]).
    pub fn new(board: &'a BulletinBoard<Post>, partition: RolePartition) -> Self {
        let (threads, state) = (crate::parallel::host_threads(), Mutex::new(ShardState::default()));
        ShardedBoard { board, partition, threads, state }
    }

    /// The same view with the committee steps' work fanned out over up
    /// to `threads` threads (`0` is treated as `1`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// This worker's role partition.
    pub fn partition(&self) -> RolePartition {
        self.partition
    }

    /// The threads this worker's steps may fan out over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Accounts a whole `PostBuffer` (the parallel engine's replay
    /// path), run by run in recording order, and decides which of its
    /// postings this worker appends: those of a members' run whose
    /// member index is in the role range, worked out span by span, and
    /// all of a leader's run on the leader. Solo mode replays the buffer
    /// onto the board as **one** transport call: the write lock (or TCP
    /// connection) is taken once per buffer, and each run costs one
    /// copy of its member spans.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (solo mode flushes immediately).
    pub(crate) fn flush_buffer(&self, buffer: PostBuffer) -> Result<(), ProtocolError> {
        if self.partition.is_solo() {
            let runs: Vec<PostRun<'_, Post>> = buffer.runs().map(|(_, run)| run).collect();
            self.board.post_run(&runs)?;
            return Ok(());
        }
        let (range, leader) = (self.partition.lo..self.partition.hi, self.partition.is_leader());
        let mut st = self.lock();
        for (author, run) in buffer.runs() {
            // Whoever appends it, the position moves past the whole run.
            let start = st.pos;
            st.pos += run.members.len() as u64;
            st.accounted.push(AccountedRun {
                start,
                committee: Arc::clone(run.committee),
                phase: Arc::from(run.phase),
                members: run.members.clone(),
            });
            match author {
                Author::Members => {
                    for (at, members) in run.members.within(range.clone()) {
                        st.queue(start + at as u64, &run, members);
                    }
                }
                Author::Leader if leader => st.queue(start, &run, run.members.clone()),
                Author::Leader => {}
            }
        }
        Ok(())
    }

    /// Waits until the board holds `target` postings. An expired wait
    /// says what this worker was doing (`doing`), the round, the
    /// position awaited and whose postings are missing.
    fn wait_len(&self, doing: &str, target: u64) -> Result<usize, ProtocolError> {
        self.board.wait_len_at_least(target as usize, WAIT_TIMEOUT).map_err(|e| {
            let held = self.board.len().map_or(0, |len| len as u64);
            let st = self.lock();
            ProtocolError::Transport(expiry(doing, st.round, target, held, &st.accounted, &e))
        })
    }

    /// Appends every pending owned run to the board, in position
    /// order, waiting for peer workers' lower positions to land first.
    fn drain_pending(&self) -> Result<(), ProtocolError> {
        let pending = std::mem::take(&mut self.lock().pending);
        let mut rest = pending.as_slice();
        while let Some(first) = rest.first() {
            // Maximal block of runs at consecutive positions: one
            // position gate, one transport call.
            let start = first.start;
            let (mut next, mut count) = (start, 0);
            while let Some(run) = rest.get(count).filter(|run| run.start == next) {
                next += run.members.len() as u64;
                count += 1;
            }
            let (block, later) = rest.split_at(count);
            let flushing = format!("flushing `{}`", first.phase);
            let len = self.wait_len(&flushing, start)?;
            if len as u64 != start {
                return Err(ProtocolError::Transport(format!(
                    "board desync: worker expected to post at position {start} \
                     but the board already holds {len} posts (peer worker \
                     posted out of its range)"
                )));
            }
            let runs: Vec<PostRun<'_, Post>> = block.iter().map(PendingRun::as_run).collect();
            self.board.post_run(&runs)?;
            rest = later;
        }
        Ok(())
    }

    /// The phase barrier: flushes this worker's pending posts, has the
    /// leader verify the round is complete and tick the round clock,
    /// and parks everyone until the tick is visible. Every worker must
    /// call this at exactly the same points in the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and barrier timeouts.
    pub fn advance_round(&self) -> Result<(), ProtocolError> {
        if self.partition.is_solo() {
            self.board.advance_round()?;
            return Ok(());
        }
        self.drain_pending()?;
        let (total, target) = {
            let st = self.lock();
            (st.pos, st.round + 1)
        };
        if self.partition.is_leader() {
            let len = self.wait_len("at the round barrier", total)?;
            if len as u64 != total {
                return Err(ProtocolError::Transport(format!(
                    "board desync at round barrier: expected {total} total \
                     posts, board holds {len}"
                )));
            }
            self.board.advance_round()?;
        }
        if let Err(e) = self.board.wait_round_at_least(target, WAIT_TIMEOUT) {
            return Err(ProtocolError::Transport(format!(
                "board wait expired in round {}: round {target} awaited from the \
                 leader worker, which ticks the clock once the round's postings \
                 have landed ({e})",
                target - 1
            )));
        }
        let mut st = self.lock();
        st.round = target;
        st.accounted.clear();
        Ok(())
    }

    /// Ends the run: flushes pending posts, waits until the whole
    /// canonical post sequence is on the board (the pipeline's last
    /// phase has no trailing round tick), and hands back the reads of
    /// the complete log. The view is consumed, so nothing posts or ticks
    /// the clock through it afterwards:
    ///
    /// ```compile_fail
    /// use yoso_core::{RolePartition, ShardedBoard};
    /// let board = yoso_runtime::BulletinBoard::new();
    /// let sb = ShardedBoard::new(&board, RolePartition::solo());
    /// sb.advance_round()?;
    /// let tally = sb.finish()?;
    /// sb.advance_round()?;
    /// # Ok::<(), yoso_core::ProtocolError>(())
    /// ```
    ///
    /// The same run, reading its tally where the line above ticked the
    /// clock:
    ///
    /// ```
    /// use yoso_core::{RolePartition, ShardedBoard};
    /// let board = yoso_runtime::BulletinBoard::new();
    /// let sb = ShardedBoard::new(&board, RolePartition::solo());
    /// sb.advance_round()?;
    /// let tally = sb.finish()?;
    /// assert_eq!(tally.rounds, 1);
    /// # Ok::<(), yoso_core::ProtocolError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates transport failures and wait timeouts.
    pub fn finish(self) -> Result<RunTally, ProtocolError> {
        if !self.partition.is_solo() {
            self.drain_pending()?;
            let total = self.lock().pos;
            let len = self.wait_len("at the run's end", total)?;
            if len as u64 != total {
                return Err(ProtocolError::Transport(format!(
                    "board desync at finish: expected {total} total posts, board \
                     holds {len}"
                )));
            }
        }
        Ok(RunTally { phases: self.board.phases()?, rounds: self.board.round()? })
    }
}

/// The message of a wait for board position `awaited` that expired
/// `doing` something in `round` with `held` postings on the board:
/// which of the round's `runs` the first missing posting belongs to,
/// and the member indices of the missing postings of that run — the
/// roles of the worker that did not post.
fn expiry(
    doing: &str,
    round: u64,
    awaited: u64,
    held: u64,
    runs: &[AccountedRun],
    cause: &dyn std::fmt::Display,
) -> String {
    let head = format!(
        "board wait expired {doing} in round {round}: position {awaited} awaited, the board \
         holds {held}"
    );
    let at = runs.partition_point(|run| run.start <= held).checked_sub(1).map(|i| &runs[i]);
    let missing = at.and_then(|run| {
        let from = usize::try_from(held - run.start).ok()?;
        let to = usize::try_from(awaited.saturating_sub(run.start)).ok()?.min(run.members.len());
        let (lo, hi) = run.members.range(from..to).fold(None, |acc, m| match acc {
            None => Some((m, m)),
            Some((lo, hi)) => Some((m.min(lo), m.max(hi))),
        })?;
        Some(format!(
            "; the missing postings are `{}` by members {lo}..{} of committee `{}`",
            run.phase,
            hi + 1,
            run.committee
        ))
    });
    format!("{head}{} ({cause})", missing.unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use rand::SeedableRng;

    /// One posting per member of `members` under one descriptor.
    fn postings(members: Range<usize>, elements: u64) -> PostBuffer {
        let committee: Arc<str> = Arc::from("committee");
        let mut posts = PostBuffer::new();
        let run = posts.open_run(Author::Members, &committee, Post::MulShare, "x", elements);
        for member in members {
            run.push(member);
        }
        posts
    }

    #[test]
    fn an_expired_wait_names_the_phase_round_position_and_roles() {
        let run = |start: u64, phase: &str, members: Range<usize>| AccountedRun {
            start,
            committee: Arc::from("off-dep-0"),
            phase: Arc::from(phase),
            members: members.collect(),
        };
        let runs = [run(10, "offline/3-dependent", 0..8), run(18, "offline/handover", 0..8)];
        let message = expiry("flushing `offline/handover`", 3, 22, 13, &runs, &"timed out");
        assert_eq!(
            message,
            "board wait expired flushing `offline/handover` in round 3: position 22 awaited, \
             the board holds 13; the missing postings are `offline/3-dependent` by members \
             3..8 of committee `off-dep-0` (timed out)"
        );
        // Nothing accounted at the position: the bare facts.
        let message = expiry("at the run's end", 0, 4, 2, &[], &"timed out");
        assert_eq!(
            message,
            "board wait expired at the run's end in round 0: position 4 awaited, the board \
             holds 2 (timed out)"
        );
    }

    #[test]
    fn solo_partition_owns_everything_and_leads() {
        let p = RolePartition::solo();
        assert!(p.is_solo());
        assert!(p.is_leader());
        assert!(p.owns(0));
        assert!(p.owns(1_000_000));
        assert_eq!(p, RolePartition::default());
    }

    #[test]
    fn of_workers_is_contiguous_disjoint_covering() {
        for n in [1usize, 7, 10, 16, 33] {
            for total in [1usize, 2, 3, 4, 8, 12] {
                let parts: Vec<RolePartition> =
                    (0..total).map(|w| RolePartition::of_workers(w, total, n)).collect();
                // Covering + disjoint: every role owned exactly once.
                for role in 0..n {
                    let owners = parts.iter().filter(|p| p.owns(role)).count();
                    assert_eq!(owners, 1, "role {role} of n={n}, total={total}");
                }
                // Contiguous: ranges chain lo..hi exactly.
                let mut cursor = 0;
                for p in &parts {
                    assert_eq!(p.lo(), cursor);
                    assert!(p.lo() <= p.hi());
                    cursor = p.hi();
                }
                assert_eq!(cursor, n);
                // Exactly one leader, even when worker 0's range is
                // empty (total > n gives worker 0 the range 0..0).
                let leaders = parts.iter().filter(|p| p.is_leader()).count();
                assert_eq!(leaders, 1, "n={n}, total={total}");
            }
        }
    }

    #[test]
    fn empty_range_worker_owns_nothing_and_never_leads() {
        let p = RolePartition::of_workers(0, 12, 10);
        assert_eq!((p.lo(), p.hi()), (0, 0));
        assert!(!p.owns(0));
        assert!(!p.is_leader());
        let leader = RolePartition::of_workers(1, 12, 10);
        assert_eq!((leader.lo(), leader.hi()), (0, 1));
        assert!(leader.is_leader());
    }

    #[test]
    fn solo_sharded_board_posts_through() {
        let board: BulletinBoard<Post> = BulletinBoard::new();
        let sb = ShardedBoard::new(&board, RolePartition::solo());
        sb.flush_buffer(postings(0..1, 2)).unwrap();
        assert_eq!(board.len().unwrap(), 1);
        sb.advance_round().unwrap();
        assert_eq!(board.round().unwrap(), 1);
        sb.finish().unwrap();
    }

    #[test]
    fn two_shards_interleave_posts_in_canonical_order() {
        // Roles 0..4 post one message each; worker A owns 0..2 and
        // worker B owns 2..4. The board must end up with the posts in
        // member order regardless of which worker flushes first.
        let board: BulletinBoard<Post> = BulletinBoard::new();
        let post_all = |sb: &ShardedBoard<'_>| {
            sb.flush_buffer(postings(0..4, 1)).unwrap();
        };
        let a = ShardedBoard::new(&board, RolePartition::range(0, 2));
        let b = ShardedBoard::new(&board, RolePartition::range(2, 4));
        post_all(&a);
        post_all(&b);
        std::thread::scope(|s| {
            // B drains first: it must wait for A's lower positions.
            let hb = s.spawn(|| b.advance_round());
            let ha = s.spawn(|| a.advance_round());
            ha.join().unwrap().unwrap();
            hb.join().unwrap().unwrap();
        });
        let postings = board.postings().unwrap();
        assert_eq!(postings.len(), 4);
        for (i, p) in postings.iter().enumerate() {
            assert_eq!(p.from, yoso_runtime::RoleId::new("committee", i));
        }
        assert_eq!(board.round().unwrap(), 1);
    }

    #[test]
    fn a_buffered_step_is_accounted_and_drained_run_by_run() {
        // Two steps of a 10-member committee through three workers'
        // buffers. The middle worker sees each step as non-owned /
        // owned / non-owned: positions move by whole runs, and what is
        // left pending is one run per step at its canonical position.
        let board: BulletinBoard<Post> = BulletinBoard::new();
        let committee = yoso_runtime::Committee::honest("c", 10);
        let workers: Vec<ShardedBoard<'_>> = [(0, 3), (3, 7), (7, 10)]
            .iter()
            .map(|&(lo, hi)| ShardedBoard::new(&board, RolePartition::range(lo, hi)))
            .collect();
        for sb in &workers {
            let step = crate::step::Step::new(&committee, sb, "x", Post::MulShare, 1);
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            for _step in 0..2 {
                let mut posts = PostBuffer::new();
                let (work, fold) = (|_, ()| {}, |_, ()| Ok(()));
                step.run(&mut rng, &mut posts, None::<&()>, step.everyone(), work, fold).unwrap();
                sb.flush_buffer(posts).unwrap();
            }
            let st = sb.lock();
            assert_eq!(st.pos, 20);
            let lo = sb.partition().lo();
            let pending: Vec<(u64, Vec<usize>)> =
                st.pending.iter().map(|run| (run.start, run.members.iter().collect())).collect();
            let owned: Vec<usize> = (lo..sb.partition().hi()).collect();
            assert_eq!(pending, vec![(lo as u64, owned.clone()), (10 + lo as u64, owned)]);
            // Each pending run is one span.
            assert!(st.pending.iter().all(|run| run.members.span_count() == 1));
        }
        std::thread::scope(|s| {
            // Spawned last-range first: each waits for the positions below.
            let handles: Vec<_> =
                workers.iter().rev().map(|sb| s.spawn(|| sb.advance_round())).collect();
            for h in handles {
                h.join().unwrap().unwrap();
            }
        });
        let members: Vec<usize> =
            board.postings().unwrap().iter().map(|p| p.from.index).collect();
        assert_eq!(members, (0..10).chain(0..10).collect::<Vec<_>>());
        let x = yoso_runtime::PhaseStats {
            elements: 20,
            bytes: 20 * messages::to_bytes(1),
            messages: 20,
        };
        assert_eq!(board.phases().unwrap(), vec![("x".to_string(), x)]);
    }

    /// A buffer with members' runs (a step, a step repeated with a
    /// member posting twice) and leader runs (a dealer, clients indexed
    /// past the committee, a committee's opened output at member 0).
    fn mixed_postings(n: usize) -> PostBuffer {
        let (c, dealer, clients): (Arc<str>, Arc<str>, Arc<str>) =
            (Arc::from("c"), Arc::from("dealer"), Arc::from("client"));
        let contribution = Post::Contribution {
            step: messages::ContributionStep::WireRandom,
            ciphertexts: 1,
        };
        let mut posts = PostBuffer::new();
        let run = posts.open_run(Author::Leader, &dealer, contribution, "setup", 4);
        (0..3).for_each(|_| run.push(0));
        let run = posts.open_run(Author::Members, &c, Post::MulShare, "x", 1);
        (0..n).chain(0..n).for_each(|i| run.push(i));
        let run = posts.open_run(Author::Members, &c, Post::PartialDec, "y", 2);
        (0..n).flat_map(|i| [i; 2]).for_each(|i| run.push(i));
        let run = posts.open_run(Author::Leader, &clients, Post::InputMu { wires: 1 }, "in", 1);
        (0..n + 3).for_each(|i| run.push(i));
        let run = posts.open_run(Author::Leader, &c, Post::MulShare, "out", 1);
        run.push(0);
        posts
    }

    #[test]
    fn every_partition_flushes_what_the_solo_view_flushes() {
        let n = 5;
        // The buffer, a barrier, the buffer again; then the tally and
        // the transcript hash of the board.
        let land = |sb: ShardedBoard<'_>| -> Result<RunTally, ProtocolError> {
            sb.flush_buffer(mixed_postings(n))?;
            sb.advance_round()?;
            sb.flush_buffer(mixed_postings(n))?;
            sb.finish()
        };
        let hash = |board: &BulletinBoard<Post>| {
            let mut acc = yoso_runtime::PhaseAccumulator::new();
            acc.finish(board).unwrap();
            acc.transcript_hash()
        };
        let board = BulletinBoard::new();
        let solo = land(ShardedBoard::new(&board, RolePartition::solo())).unwrap();
        let solo_hash = hash(&board);
        assert_eq!(solo.rounds, 1);
        for workers in [1, 2, 3, n + 1] {
            let board = BulletinBoard::new();
            let tallies: Vec<RunTally> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .rev()
                    .map(|w| {
                        let partition = RolePartition::of_workers(w, workers, n);
                        let sb = ShardedBoard::new(&board, partition);
                        s.spawn(move || land(sb))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect()
            });
            assert!(tallies.iter().all(|tally| *tally == solo), "W = {workers}");
            assert_eq!(hash(&board), solo_hash, "W = {workers}");
        }
    }

    #[test]
    fn desync_is_detected_not_deadlocked() {
        // A rogue post outside the partition accounting shifts the
        // board length past a worker's expected position: the drain
        // must fail loudly instead of posting at the wrong offset.
        let board: BulletinBoard<Post> = BulletinBoard::new();
        let a = ShardedBoard::new(&board, RolePartition::range(0, 1));
        a.flush_buffer(postings(0..1, 1)).unwrap();
        board
            .post(yoso_runtime::RoleId::new("rogue", 9), Post::MulShare, "x", 1, 8)
            .unwrap();
        let err = a.finish().unwrap_err();
        assert!(matches!(err, ProtocolError::Transport(_)), "{err}");
    }
}
