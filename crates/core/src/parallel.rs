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
//! Compiled without the `parallel` feature, [`par_map`] degrades to a
//! sequential loop over the same per-item seeds — results are still
//! identical, only wall-clock changes.

use std::sync::Arc;

use yoso_runtime::{BoardError, BulletinBoard, PostRecord, RoleId};

use crate::messages::{self, Post};

/// A single board post produced away from the board (e.g. on a worker
/// thread), replayed later in deterministic item order.
///
/// Holds only public accounting data — the posting role, the post
/// kind, the phase label, and the element count. Message *payloads*
/// never enter the buffer (the board model tracks sizes, not bytes),
/// so the derived `Debug` cannot leak secrets.
#[derive(Debug, Clone)]
struct BufferedPost {
    /// Whether the recording worker's [`crate::workitem::RolePartition`]
    /// owns the member this post belongs to. Solo runs own everything;
    /// a role-sharded worker buffers *every* post for position
    /// accounting but appends only the owned ones to the board.
    owned: bool,
    role: RoleId,
    post: Post,
    phase: &'static str,
    elements: u64,
}

/// An append-only buffer of board posts owned by one parallel worker.
///
/// Workers must not touch the shared [`BulletinBoard`] directly — the
/// transcript order would then depend on thread scheduling. Instead
/// each worker records into its own `PostBuffer` and the coordinator
/// replays the buffers in item-index order ([`Self::flush`]), keeping
/// transcripts byte-identical at any thread count.
#[derive(Debug, Clone, Default)]
pub(crate) struct PostBuffer {
    posts: Vec<BufferedPost>,
}

impl PostBuffer {
    pub(crate) fn new() -> Self {
        PostBuffer { posts: Vec::new() }
    }

    /// Records one post for later replay. `owned` says whether the
    /// current worker's role partition owns the posting member (always
    /// true in solo runs).
    pub(crate) fn record(
        &mut self,
        owned: bool,
        role: RoleId,
        post: Post,
        phase: &'static str,
        elements: u64,
    ) {
        self.posts.push(BufferedPost { owned, role, post, phase, elements });
    }

    /// Converts the buffer into a lazy stream of transport records in
    /// recording order, tagged with the recorder's ownership flags.
    /// Phase labels are the ones interned by `board`'s meter (looked up
    /// once per run of equal labels), so no record allocates a label.
    pub(crate) fn into_record_iter(
        self,
        board: &BulletinBoard<Post>,
    ) -> impl Iterator<Item = (bool, PostRecord<Post>)> + '_ {
        let mut last: Option<(&'static str, Arc<str>)> = None;
        self.posts.into_iter().map(move |p| {
            let phase = match &last {
                Some((label, shared)) if *label == p.phase => Arc::clone(shared),
                _ => {
                    let shared = board.meter().intern(p.phase);
                    last = Some((p.phase, Arc::clone(&shared)));
                    shared
                }
            };
            (
                p.owned,
                PostRecord {
                    from: p.role,
                    phase,
                    message: p.post,
                    elements: p.elements,
                    bytes: messages::to_bytes(p.elements),
                },
            )
        })
    }

    /// Replays the buffered posts onto the board, in recording order,
    /// as **one** transport flush: the write lock (or TCP connection)
    /// is taken once per buffer instead of once per post, and records
    /// stream straight into the transport's frame encoder without an
    /// intermediate `Vec<PostRecord>`.
    pub(crate) fn flush(self, board: &BulletinBoard<Post>) -> Result<(), BoardError> {
        board.post_record_stream(self.into_record_iter(board).map(|(_, r)| r)).map(|_| ())
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
/// [`MIN_ITEMS_PER_THREAD`] items per worker after clamping to the
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
