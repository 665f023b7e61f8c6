//! Deterministic fan-out of independent protocol work.
//!
//! The engine's hot loops — one Beaver triple per multiplication gate
//! offline, one share computation per committee member online — are
//! data-parallel, but the naive loop threads a single RNG through every
//! iteration, serializing them. The engine instead derives one child
//! seed per work item *sequentially* from the caller's RNG (so the seed
//! sequence, and therefore every result, is independent of thread
//! count), runs the items on a scoped thread pool, and replays their
//! board posts in item-index order. Transcripts are byte-identical
//! whether `num_threads` is 1 or 16.
//!
//! With `num_threads <= 1`, or too few items per thread to pay for
//! the fan-out, [`par_map`] runs inline as a sequential loop over the
//! same per-item seeds — results are still identical, only wall-clock
//! changes.

use std::sync::Arc;

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

/// An append-only, run-length buffer of board posts produced away from
/// the board (e.g. on a worker thread), replayed later in deterministic
/// item order.
///
/// Workers must not touch the shared [`BulletinBoard`] directly — the
/// transcript order would then depend on thread scheduling. Instead
/// each worker records into its own `PostBuffer` and the coordinator
/// replays the buffers in item-index order
/// ([`crate::workitem::ShardedBoard::flush_buffer`]), keeping
/// transcripts byte-identical at any thread count. A committee step's
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

/// Below this many items per prospective worker thread, [`par_map`]
/// runs inline: thread spawn + synchronization overhead exceeds the
/// work itself at small batches (measured as `reenc_speedup` 0.80 at
/// n = 32 before the threshold existed).
pub(crate) const MIN_ITEMS_PER_THREAD: usize = 32;

/// Maps `f` over `items`, preserving order, using up to `num_threads`
/// worker threads.
///
/// `f` receives `(index, &item)` and must be pure per item (any
/// randomness comes from a per-item seed inside `item`). Runs inline
/// on the caller's thread when `num_threads <= 1` or when the batch is
/// too small to amortize thread fan-out (fewer than
/// `MIN_ITEMS_PER_THREAD` items per worker after clamping to the
/// host's available parallelism). The results are identical either
/// way — the threshold is a pure wall-clock guard.
pub fn par_map<T, U, F>(num_threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let hw = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1);
    let workers = num_threads.min(hw).min(items.len() / MIN_ITEMS_PER_THREAD);
    if workers > 1 {
        return par_map_threaded(workers, items, &f);
    }
    items.iter().enumerate().map(|(i, item)| f(i, item)).collect()
}

fn par_map_threaded<T, U, F>(workers: usize, items: &[T], f: &F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let out = f(i, &items[i]);
                *results[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                // lint:allow(panic): provable — the scope above joins all
                // workers before returning, every index < len is claimed
                // exactly once, and a worker panic propagates at scope
                // exit, so each slot is Some here.
                .expect("every work item produced a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for threads in [0, 1, 2, 7, 64] {
            assert_eq!(par_map(threads, &items, |_, &x| x * x), expect, "threads={threads}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items: Vec<usize> = (0..50).collect();
        let got = par_map(4, &items, |i, &x| (i, x));
        for (i, &(gi, gx)) in got.iter().enumerate() {
            assert_eq!((gi, gx), (i, i));
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(8, &[] as &[u32], |_, &x| x), Vec::<u32>::new());
        assert_eq!(par_map(8, &[5u32], |_, &x| x + 1), vec![6]);
    }

    /// The hw/threshold clamp in [`par_map`] can make the threaded path
    /// unreachable on small hosts (1 hardware thread ⇒ always inline),
    /// so the thread pool itself is exercised directly here.
    #[test]
    fn threaded_path_preserves_order_and_values() {
        let items: Vec<u64> = (0..200).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [2, 4, 8] {
            assert_eq!(
                par_map_threaded(workers, &items, &|_, &x: &u64| x * 3 + 1),
                expect,
                "workers={workers}"
            );
        }
    }

    /// Small batches must not fan out: below the per-thread minimum the
    /// map runs inline regardless of the requested thread count.
    #[test]
    fn small_batches_stay_inline() {
        let items: Vec<u64> = (0..31).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x + 7).collect();
        assert_eq!(par_map(64, &items, |_, &x| x + 7), expect);
    }
}
