//! Deterministic fan-out of independent protocol work.
//!
//! The protocol's hot loops are data-parallel: a committee step is `n`
//! members computing their postings from their own state, then one
//! ordered fold over what they posted. The engine derives one child
//! seed per work item *sequentially* from the caller's RNG (so the seed
//! sequence, and therefore every result, is independent of thread
//! count), computes the items on scoped threads with `par_windows` —
//! the one work queue — and folds and records them in item order on the
//! caller. Transcripts are byte-identical whether `num_threads` is 1 or
//! 16.
//!
//! Threads come from one process-wide budget: compute threads, callers
//! included, never exceed the host's cores, and a map nested in
//! another's items runs inline. Without a helper, or with too little
//! work per thread to pay for one, the caller runs the same items in
//! the same order — results are still identical, only wall-clock
//! changes.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

use yoso_runtime::{PostRun, Speakers};

use crate::messages::{self, Post};

/// Who authored a buffered run, which decides the worker that appends
/// it ([`crate::workitem::ShardedBoard`]'s flush).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Author {
    /// A committee's members: each posting is appended by the worker
    /// whose role partition owns its member index.
    Members,
    /// The leader — a setup dealer, the clients, a committee's opened
    /// output: the whole run is appended by the leader worker, whatever
    /// its indices.
    Leader,
}

/// What the consecutive posts of one buffered run share. Holds only
/// public accounting data — the author, the committee, the post kind,
/// the phase label and the element count. Message *payloads* never
/// enter the buffer (the board model tracks sizes, not bytes), so the
/// derived `Debug` cannot leak secrets.
#[derive(Debug, Clone)]
struct BufferedRun {
    author: Author,
    committee: Arc<str>,
    post: Post,
    phase: &'static str,
    elements: u64,
    /// The run's member indices, as spans.
    members: Speakers,
}

/// An append-only, run-length buffer of board posts, recorded by the
/// thread that runs a step and flushed in one piece
/// ([`crate::workitem::ShardedBoard::flush_buffer`]).
///
/// Fanned-out work never touches it: a step's postings depend on who
/// speaks, never on what they compute, so the caller records every
/// speaker in order while the members' values are computed on other
/// threads, keeping transcripts byte-identical at any thread count. A
/// committee step's
/// members differ only in who they are, so what the step shares is
/// stored once per run and its members as [`Speakers`] spans: a step
/// `0, 1, …, n − 1` costs the buffer one span.
#[derive(Debug, Clone, Default)]
pub(crate) struct PostBuffer {
    runs: Vec<BufferedRun>,
}

impl PostBuffer {
    pub(crate) fn new() -> Self {
        PostBuffer::default()
    }

    /// Opens the run `author`'s postings go into, for later replay, and
    /// returns its members: each index pushed onto them is one posting
    /// by that member of `committee`, a `post` of `elements` under
    /// `phase`. The last run is continued unless anything but its
    /// members differs.
    pub(crate) fn open_run(
        &mut self,
        author: Author,
        committee: &Arc<str>,
        post: Post,
        phase: &'static str,
        elements: u64,
    ) -> &mut Speakers {
        let continues = self.runs.last().is_some_and(|run| {
            run.author == author
                && run.elements == elements
                && run.post == post
                && run.phase == phase
                && (Arc::ptr_eq(&run.committee, committee) || run.committee == *committee)
        });
        if !continues {
            let (committee, members) = (Arc::clone(committee), Speakers::new());
            self.runs.push(BufferedRun { author, committee, post, phase, elements, members });
        }
        let open = self.runs.len() - 1;
        &mut self.runs[open].members
    }

    /// The buffered runs that hold a posting, in recording order, each
    /// with its author.
    pub(crate) fn runs(&self) -> impl Iterator<Item = (Author, PostRun<'_, Post>)> + '_ {
        self.runs.iter().filter(|run| !run.members.is_empty()).map(|run| {
            let posted = PostRun {
                committee: &run.committee,
                phase: run.phase,
                message: &run.post,
                elements: run.elements,
                bytes: messages::to_bytes(run.elements),
                members: &run.members,
            };
            (run.author, posted)
        })
    }
}

/// The work a thread must get before a map fans out, in light member
/// turns (one contributed or re-encrypted item with proofs off: tens of
/// nanoseconds). A helper costs a thread spawn and its first touches of
/// memory — about a millisecond on a 2-vCPU VM — so a map fans out only
/// with a millisecond or so of work a thread: a large committee's
/// handover or `Re-encrypt` batch, not a small committee's. Set from a
/// sweep of 16 Ki–256 Ki (EXPERIMENTS P21).
pub(crate) const MIN_TURNS_PER_THREAD: usize = 32_768;

/// The members of a heavy step (a handover or DKG dealing, a proved
/// `Decrypt` or `3-mult` posting) a thread takes per window of the
/// step's fan-out: windows stay small, so few outputs are held at once,
/// and the threads live for the whole step, so a window costs a
/// hand-off, not a spawn. Set from a sweep of 2–64 (EXPERIMENTS P21):
/// smaller windows pay the hand-off too often, larger ones hold more
/// outputs (peak RSS +48 % at 64).
pub(crate) const MEMBERS_PER_THREAD: usize = 16;

/// Compute threads at work across the process: registered callers
/// ([`Caller`]) plus the helpers of every running [`par_windows`]. Helpers
/// are granted only while this is below the host's cores.
static BUSY: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is already counted in [`BUSY`] as a caller.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// Whether this thread is running a threaded [`par_windows`]'s items
    /// (as a helper, or as the caller working beside them): a nested
    /// map then runs inline.
    static FANNED_OUT: Cell<bool> = const { Cell::new(false) };
}

/// The host's cores, read once: the default thread count of a run.
pub(crate) fn host_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |v| v.get()))
}

/// One compute caller counted against the process-wide thread budget
/// while it lives: a protocol run ([`crate::Engine::run_with_board`])
/// holds one for its whole length, a [`par_windows`] called from an
/// uncounted thread for its own. A thread already counted counts once.
/// Callers are never refused; helpers are drawn only from the cores
/// they leave, so two runs in one process on a 2-core host get no
/// helpers at all.
pub(crate) struct Caller {
    counted: bool,
}

impl Caller {
    /// Counts the calling thread, unless it already is — as a caller,
    /// or as a helper running a map's items.
    pub(crate) fn enter() -> Self {
        let counted = !FANNED_OUT.with(Cell::get) && !COUNTED.with(|c| c.replace(true));
        if counted {
            BUSY.fetch_add(1, Ordering::AcqRel);
        }
        Caller { counted }
    }
}

impl Drop for Caller {
    fn drop(&mut self) {
        if self.counted {
            COUNTED.with(|c| c.set(false));
            BUSY.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Helpers reserved from the budget, returned when dropped.
struct Helpers(usize);

impl Helpers {
    /// Reserves up to `wanted` helpers from the cores no counted thread
    /// uses.
    fn reserve(wanted: usize) -> Self {
        let mut busy = BUSY.load(Ordering::Acquire);
        loop {
            let take = wanted.min(host_threads().saturating_sub(busy));
            if take == 0 {
                return Helpers(0);
            }
            match BUSY.compare_exchange_weak(busy, busy + take, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Helpers(take),
                Err(now) => busy = now,
            }
        }
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        BUSY.fetch_sub(self.0, Ordering::AcqRel);
    }
}

/// Marks the current thread as running a threaded map's items for as
/// long as it lives.
struct FannedOut(bool);

impl FannedOut {
    fn enter() -> Self {
        FannedOut(FANNED_OUT.with(|f| f.replace(true)))
    }
}

impl Drop for FannedOut {
    fn drop(&mut self) {
        FANNED_OUT.with(|f| f.set(self.0));
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: the worker count this thread's outermost
    /// `par_windows` runs with, whatever the budget and the work.
    static FORCED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `f` with every outermost [`par_windows`] on this thread forced
/// onto `workers` threads (`1` = inline), so the threaded path runs on
/// any host.
#[cfg(test)]
pub(crate) fn with_forced_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    let before = FORCED.with(|c| c.replace(Some(workers)));
    let out = f();
    FORCED.with(|c| c.set(before));
    out
}

/// Runs `work` over the items `next` makes on the calling thread, in
/// order, and hands each item with its output to `done` on the calling
/// thread, in the same order, until `next` makes none.
///
/// With helpers, up to `num_threads` threads, the caller's included,
/// live for the whole stream: the caller makes `window` items, the
/// threads claim them one at a time, and `done` takes them all before
/// the next window is made — so a stream of many windows pays for its
/// helpers once and holds one window's outputs at a time. Without a
/// helper each item goes from `next` through `work` to `done` in turn,
/// and nothing is held.
///
/// Helpers are decided once, from `turns`, the stream's whole work in
/// light member turns: none when `num_threads <= 1`, when the work is
/// less than `MIN_TURNS_PER_THREAD` a thread, when the stream runs
/// inside another's items, or when the process-wide budget has no core
/// left. Every helper is joined before this returns. Results are
/// identical either way.
///
/// # Errors
///
/// The first error `done` returns; no later item is made.
pub(crate) fn par_windows<T, U, E>(
    num_threads: usize,
    turns: usize,
    window: usize,
    mut next: impl FnMut() -> Option<T>,
    work: impl Fn(&T) -> U + Sync,
    mut done: impl FnMut(&T, U) -> Result<(), E>,
) -> Result<(), E>
where
    T: Send + Sync,
    U: Send,
{
    let _caller = Caller::enter();
    let (helpers, _reserved) = helpers_for(num_threads, turns);
    if helpers == 0 {
        while let Some(item) = next() {
            let output = work(&item);
            done(&item, output)?;
        }
        return Ok(());
    }
    let cursor = AtomicUsize::new(0);
    let claim = |window: &[T]| {
        let _fanned = FannedOut::enter();
        let mut claimed = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = window.get(i) else { return claimed };
            claimed.push((i, work(item)));
        }
    };
    std::thread::scope(|scope| {
        let (results, claimed) = mpsc::channel::<std::thread::Result<(Vec<(usize, U)>, u64)>>();
        let windows: Vec<_> = (0..helpers)
            .map(|_| {
                let (window_tx, window_rx) = mpsc::channel::<Arc<Vec<T>>>();
                let (results, claim) = (results.clone(), &claim);
                scope.spawn(move || {
                    for window in window_rx {
                        let mine =
                            panic::catch_unwind(AssertUnwindSafe(|| counted(|| claim(&window))));
                        drop(window);
                        if results.send(mine).is_err() {
                            return;
                        }
                    }
                });
                window_tx
            })
            .collect();
        loop {
            let items: Vec<T> = std::iter::from_fn(&mut next).take(window.max(1)).collect();
            if items.is_empty() {
                return Ok(());
            }
            let window = Arc::new(items);
            cursor.store(0, Ordering::Relaxed);
            let sent = windows.iter().filter(|tx| tx.send(Arc::clone(&window)).is_ok()).count();
            let mut slots: Vec<Option<U>> = window.iter().map(|_| None).collect();
            let mut place = |claimed: Vec<(usize, U)>| {
                for (i, output) in claimed {
                    slots[i] = Some(output);
                }
            };
            place(claim(&window));
            for _ in 0..sent {
                match claimed.recv() {
                    Ok(Ok((mine, blocks))) => {
                        credit(blocks);
                        place(mine);
                    }
                    Ok(Err(payload)) => panic::resume_unwind(payload),
                    Err(_) => break,
                }
            }
            for (item, slot) in window.iter().zip(slots) {
                // lint:allow(panic): provable — every helper's claims were
                // received above and each index < len was claimed once by
                // a thread that ran to completion, so each slot is Some.
                done(item, slot.expect("every item ran"))?;
            }
        }
    })
}

/// Runs a helper's share of a map and returns it with the SHA-256
/// compressions it made (counted in debug builds only), for the caller
/// to [`credit`].
fn counted<T>(share: impl FnOnce() -> T) -> (T, u64) {
    #[cfg(debug_assertions)]
    return yoso_crypto::sha256::compressions_of(share);
    #[cfg(not(debug_assertions))]
    (share(), 0)
}

/// Credits a helper's compressions to the caller's count, so
/// `compressions_of` around a run covers the work wherever it ran.
fn credit(blocks: u64) {
    #[cfg(debug_assertions)]
    yoso_crypto::sha256::credit_compressions(blocks);
    #[cfg(not(debug_assertions))]
    let _ = blocks;
}

/// How many helpers a map of `turns` light member turns at
/// `num_threads` threads runs with, and their reservation: none when
/// nested in another map's items or when the budget has no core to
/// spare.
fn helpers_for(num_threads: usize, turns: usize) -> (usize, Option<Helpers>) {
    let fanned = FANNED_OUT.with(Cell::get);
    #[cfg(test)]
    if let Some(workers) = FORCED.with(Cell::get).filter(|_| !fanned) {
        return (workers.saturating_sub(1), None);
    }
    let wanted = num_threads.min(turns / MIN_TURNS_PER_THREAD);
    if wanted <= 1 || fanned {
        return (0, None);
    }
    let reserved = Helpers::reserve(wanted - 1);
    (reserved.0, Some(reserved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// `par_windows` over one window, the whole of `items`, on up to
    /// `num_threads` threads, each item about `item_turns` light member
    /// turns of work: `f(index, item)` for each item, in item order.
    fn par_map<T, U, F>(num_threads: usize, item_turns: usize, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let turns = item_turns.saturating_mul(items.len());
        let (mut next, window) = (items.iter().enumerate(), items.len().max(1));
        let mut mapped = Vec::with_capacity(items.len());
        let done = |_: &_, output| {
            mapped.push(output);
            Ok::<(), Infallible>(())
        };
        match par_windows(num_threads, turns, window, || next.next(), |&(i, item)| f(i, item), done)
        {
            Ok(()) => mapped,
            Err(never) => match never {},
        }
    }

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [0, 1, 2, 7, 64] {
            assert_eq!(par_map(threads, 1, &items, |_, &x| x * x), expect, "threads={threads}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items: Vec<usize> = (0..50).collect();
        let got = par_map(4, MIN_TURNS_PER_THREAD, &items, |i, &x| (i, x));
        for (i, &(gi, gx)) in got.iter().enumerate() {
            assert_eq!((gi, gx), (i, i));
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(8, MIN_TURNS_PER_THREAD, &[] as &[u32], |_, &x| x), Vec::<u32>::new());
        assert_eq!(par_map(8, MIN_TURNS_PER_THREAD, &[5u32], |_, &x| x + 1), vec![6]);
    }

    /// The budget and the work gate can make the threaded path
    /// unreachable on small hosts (1 hardware thread ⇒ always inline),
    /// so the worker count is forced here.
    #[test]
    fn threaded_path_preserves_order_and_values() {
        let items: Vec<u64> = (0..200).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [2, 4, 8] {
            let got =
                with_forced_workers(workers, || par_map(workers, 1, &items, |_, &x| x * 3 + 1));
            assert_eq!(got, expect, "workers={workers}");
        }
    }

    /// A stream reads the same at any worker count: each item's output
    /// reaches `done` in item order, and an error from `done` ends the
    /// stream.
    #[test]
    fn a_stream_arrives_in_order_and_an_error_ends_it() {
        for workers in [1, 2, 4] {
            let (mut left, mut seen) = (0..100u64, Vec::new());
            let done = |&x: &u64, output: u64| {
                assert_eq!(output, x * x);
                seen.push(output);
                if seen.len() >= 50 {
                    return Err(seen.len());
                }
                Ok(())
            };
            let stream = || par_windows(workers, 1, 7, || left.next(), |x| x * x, done);
            assert_eq!(with_forced_workers(workers, stream), Err(50), "workers={workers}");
            assert_eq!(seen, (0..50).map(|x| x * x).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    /// Two callers at once — two runs in one process — hold the host's
    /// cores between them: helpers are granted only from the cores no
    /// counted thread uses. Callers themselves are never refused, so a
    /// 1-core host still runs both.
    #[test]
    fn concurrent_callers_never_run_more_closures_than_the_host_has_cores() {
        let (running, high) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let items: Vec<u64> = (0..512).collect();
        let work = |_, &x: &u64| {
            high.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            let mut acc = x;
            for _ in 0..20_000 {
                acc = std::hint::black_box(acc.wrapping_mul(6_364_136_223_846_793_005) + 1);
            }
            running.fetch_sub(1, Ordering::SeqCst);
            acc
        };
        let expect: Vec<u64> = items.iter().enumerate().map(|(i, x)| work(i, x)).collect();
        high.store(0, Ordering::SeqCst);
        let both = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _caller = Caller::enter();
                    both.wait();
                    assert_eq!(par_map(64, MIN_TURNS_PER_THREAD, &items, work), expect);
                });
            }
        });
        let high = high.load(Ordering::SeqCst);
        assert!(high <= host_threads().max(2), "{high} closures at once");
    }

    /// Inside a threaded map's items, a nested `par_map` runs on the
    /// thread that called it.
    #[test]
    fn a_nested_par_map_runs_inline() {
        let outer: Vec<usize> = (0..4).collect();
        let inner: Vec<usize> = (0..2048).collect();
        let inline = with_forced_workers(4, || {
            par_map(4, 1, &outer, |_, _| {
                let me = std::thread::current().id();
                let ids =
                    par_map(64, MIN_TURNS_PER_THREAD, &inner, |_, _| std::thread::current().id());
                ids.iter().all(|&id| id == me)
            })
        });
        assert_eq!(inline, [true; 4]);
    }

    /// Too little work must not fan out: below `MIN_TURNS_PER_THREAD` a
    /// thread the map runs inline regardless of the requested thread
    /// count.
    #[test]
    fn small_batches_stay_inline() {
        let items: Vec<u64> = (0..31).collect();
        let me = std::thread::current().id();
        let out = par_map(64, MIN_TURNS_PER_THREAD / 16, &items, |_, &x| {
            (x + 7, std::thread::current().id() == me)
        });
        assert_eq!(out, items.iter().map(|&x| (x + 7, true)).collect::<Vec<_>>());
    }
}
