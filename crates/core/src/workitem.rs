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

use yoso_runtime::{BulletinBoard, PostRun, RoleId, Speakers};

use crate::messages::{self, Post};
use crate::parallel::PostBuffer;
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

/// Mutable position/round accounting of one worker's board view.
#[derive(Debug, Default)]
struct ShardState {
    /// Owned runs not yet appended. Always sorted: positions are
    /// assigned in call order.
    pending: Vec<PendingRun>,
    /// Canonical number of posts accounted so far across *all*
    /// workers (every worker replicates the full post sequence, so
    /// local accounting equals the global count).
    pos: u64,
    /// The round this worker believes the board is in.
    round: u64,
}

impl ShardState {
    /// Accounts one run at the current position: whoever owns it, the
    /// position moves past all of its posts in one step; a run this
    /// worker owns is queued for the next barrier.
    fn account(&mut self, owned: bool, run: &PostRun<'_, Post>) {
        let start = self.pos;
        self.pos += run.members.len() as u64;
        if owned {
            self.pending.push(PendingRun {
                start,
                committee: Arc::clone(run.committee),
                phase: Arc::from(run.phase),
                message: *run.message,
                elements: run.elements,
                members: run.members.clone(),
            });
        }
    }
}

/// A bulletin-board façade for one role-sharded worker.
///
/// In solo mode every call passes straight through to the underlying
/// board — byte-for-byte the pre-sharding behavior. In sharded mode
/// the worker accounts a global position for every post, buffers the
/// posts it owns, and appends them in position order at the next
/// round barrier, waiting on the board length until lower positions
/// (owned by peer workers) have landed. Deadlock-free: pending runs
/// partition the round's position space, every wait points strictly
/// backward, and all workers pass the same number of barriers.
pub struct ShardedBoard<'a> {
    board: &'a BulletinBoard<Post>,
    partition: RolePartition,
    state: Mutex<ShardState>,
}

impl std::fmt::Debug for ShardedBoard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBoard")
            .field("partition", &self.partition)
            .finish_non_exhaustive()
    }
}

impl<'a> ShardedBoard<'a> {
    /// Wraps `board` for the single-process mode: every post passes
    /// straight through.
    pub fn solo(board: &'a BulletinBoard<Post>) -> Self {
        ShardedBoard {
            board,
            partition: RolePartition::solo(),
            state: Mutex::new(ShardState::default()),
        }
    }

    /// Wraps `board` for one worker of a sharded run.
    ///
    /// A sharded run must start from a **fresh board** (empty, round
    /// 0): every worker replicates the canonical post sequence from
    /// the beginning, so its accounting is anchored at position 0
    /// regardless of when it joins. That makes joining race-free — a
    /// worker connecting after the leader has already posted its first
    /// setup records still accounts those records at their true
    /// positions. Solo wrappers instead pick up the board's current
    /// clock so sequential phase calls chain.
    ///
    /// # Errors
    ///
    /// Propagates transport failures reading the board's clock.
    pub fn new(
        board: &'a BulletinBoard<Post>,
        partition: RolePartition,
    ) -> Result<Self, ProtocolError> {
        let (round, pos) = if partition.is_solo() {
            (board.round()?, board.len()? as u64)
        } else {
            (0, 0)
        };
        Ok(ShardedBoard {
            board,
            partition,
            state: Mutex::new(ShardState { pending: Vec::new(), pos, round }),
        })
    }

    /// The underlying board.
    pub fn board(&self) -> &'a BulletinBoard<Post> {
        self.board
    }

    /// This worker's role partition.
    pub fn partition(&self) -> RolePartition {
        self.partition
    }

    /// Whether this worker drives leader-only posts and round ticks.
    pub fn is_leader(&self) -> bool {
        self.partition.is_leader()
    }

    /// The round this worker is currently posting in.
    pub fn round(&self) -> u64 {
        self.lock().round
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Accounts one post. `owned` says whether this worker is the one
    /// that appends it (member posts: the partition owns the member;
    /// dealer/client posts: this worker is leader). Owned posts are
    /// buffered until the next barrier; non-owned posts only advance
    /// the position counter — this never blocks.
    ///
    /// # Errors
    ///
    /// Propagates transport failures (solo mode posts immediately).
    pub fn post(
        &self,
        owned: bool,
        from: RoleId,
        message: Post,
        phase: &'static str,
        elements: u64,
    ) -> Result<(), ProtocolError> {
        if self.partition.is_solo() {
            self.board.post(from, message, phase, elements, messages::to_bytes(elements))?;
            return Ok(());
        }
        let run = PostRun {
            committee: &from.committee,
            phase,
            message: &message,
            elements,
            bytes: messages::to_bytes(elements),
            members: &Speakers::from(&[from.index][..]),
        };
        self.lock().account(owned, &run);
        Ok(())
    }

    /// Accounts a whole `PostBuffer` (the parallel engine's replay
    /// path), run by run, according to each run's ownership flag and
    /// preserving recording order. Solo mode replays the buffer onto
    /// the board as **one** transport call: the write lock (or TCP
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
        let mut st = self.lock();
        for (owned, run) in buffer.runs() {
            st.account(owned, &run);
        }
        Ok(())
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
            let len = self.board.wait_len_at_least(start as usize, WAIT_TIMEOUT)?;
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
            let mut st = self.lock();
            st.round += 1;
            return Ok(());
        }
        self.drain_pending()?;
        let (total, target) = {
            let st = self.lock();
            (st.pos, st.round + 1)
        };
        if self.is_leader() {
            let len = self.board.wait_len_at_least(total as usize, WAIT_TIMEOUT)?;
            if len as u64 != total {
                return Err(ProtocolError::Transport(format!(
                    "board desync at round barrier: expected {total} total \
                     posts, board holds {len}"
                )));
            }
            self.board.advance_round()?;
        }
        self.board.wait_round_at_least(target, WAIT_TIMEOUT)?;
        self.lock().round = target;
        Ok(())
    }

    /// Final drain: flushes pending posts and waits until the whole
    /// canonical post sequence is on the board (the pipeline's last
    /// phase has no trailing round tick, and every worker then reads
    /// the per-phase table of the complete log).
    ///
    /// # Errors
    ///
    /// Propagates transport failures and wait timeouts.
    pub fn finish(&self) -> Result<(), ProtocolError> {
        if self.partition.is_solo() {
            return Ok(());
        }
        self.drain_pending()?;
        let total = self.lock().pos;
        let len = self.board.wait_len_at_least(total as usize, WAIT_TIMEOUT)?;
        if len as u64 != total {
            return Err(ProtocolError::Transport(format!(
                "board desync at finish: expected {total} total posts, board \
                 holds {len}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let sb = ShardedBoard::solo(&board);
        sb.post(true, RoleId::new("c", 0), Post::MulShare, "x", 2).unwrap();
        assert_eq!(board.len().unwrap(), 1);
        sb.advance_round().unwrap();
        assert_eq!(board.round().unwrap(), 1);
        assert_eq!(sb.round(), 1);
        sb.finish().unwrap();
    }

    #[test]
    fn two_shards_interleave_posts_in_canonical_order() {
        // Roles 0..4 post one message each; worker A owns 0..2 and
        // worker B owns 2..4. The board must end up with the posts in
        // member order regardless of which worker flushes first.
        let board: BulletinBoard<Post> = BulletinBoard::new();
        let post_all = |sb: &ShardedBoard<'_>| {
            for i in 0..4usize {
                sb.post(
                    sb.partition().owns(i),
                    RoleId::new("committee", i),
                    Post::MulShare,
                    "x",
                    1,
                )
                .unwrap();
            }
        };
        let a = ShardedBoard::new(&board, RolePartition::range(0, 2)).unwrap();
        let b = ShardedBoard::new(&board, RolePartition::range(2, 4)).unwrap();
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
            assert_eq!(p.from, RoleId::new("committee", i));
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
            .map(|&(lo, hi)| ShardedBoard::new(&board, RolePartition::range(lo, hi)).unwrap())
            .collect();
        for sb in &workers {
            let cfg = crate::ExecutionConfig::default().with_partition(sb.partition());
            let step = crate::step::Step::new(&committee, &cfg, "x", Post::MulShare, 1);
            for _step in 0..2 {
                let mut posts = PostBuffer::new();
                step.record_speakers(&mut posts, 0..10);
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

    #[test]
    fn desync_is_detected_not_deadlocked() {
        // A rogue post outside the partition accounting shifts the
        // board length past a worker's expected position: the drain
        // must fail loudly instead of posting at the wrong offset.
        let board: BulletinBoard<Post> = BulletinBoard::new();
        let a = ShardedBoard::new(&board, RolePartition::range(0, 1)).unwrap();
        a.post(true, RoleId::new("committee", 0), Post::MulShare, "x", 1).unwrap();
        board
            .post(RoleId::new("rogue", 9), Post::MulShare, "x", 1, 8)
            .unwrap();
        let err = a.finish().unwrap_err();
        assert!(matches!(err, ProtocolError::Transport(_)), "{err}");
    }
}
