//! Deterministic scoped-thread parallelism.
//!
//! Every parallel construct in the workspace is built on two rules that
//! together make results **bit-identical at any thread count**:
//!
//! 1. *Work is split by index, never by arrival order.* [`par_map`]
//!    assigns contiguous index ranges to worker threads and returns
//!    results in input order, so any reduction the caller performs runs
//!    in the same order as a sequential loop.
//! 2. *Randomness is derived, never shared.* A trajectory/shot/start at
//!    global index `i` draws from an RNG seeded with
//!    [`derive_seed`]`(seed, i)` — a SplitMix64-style finalizer mix —
//!    instead of consuming a shared RNG stream whose state would depend
//!    on scheduling.
//!
//! Thread counts resolve as: explicit request → `RASENGAN_THREADS`
//! environment variable → [`std::thread::available_parallelism`]. Only
//! `std::thread::scope` is used; there is no pool and no external
//! dependency.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// SplitMix64 finalizer: a bijective 64-bit mix with full avalanche
/// (every output bit depends on every input bit).
///
/// This is the mixing step of Steele et al.'s SplitMix generator, also
/// used as the xoshiro seed expander. Unlike `seed.wrapping_add(k * C)`,
/// nearby inputs produce unrelated outputs, so derived streams never
/// replay each other.
///
/// The definition lives in `rasengan-obs` (span-ID derivation uses the
/// same finalizer); this re-export keeps `parallel::splitmix64` the
/// canonical path for seed work.
pub use rasengan_obs::splitmix64;

/// Derives an independent RNG seed for stream `stream` of a base `seed`.
///
/// Used for per-shot noise trajectories, per-input sampling streams, and
/// multistart restarts. Both arguments go through the finalizer, so
/// user seeds that differ by any fixed offset still yield unrelated
/// streams (the `seed + start * 0x9E37` replay bug this replaces).
#[must_use]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

/// Threads to use when the caller did not pick a count: the
/// `RASENGAN_THREADS` environment variable if set to a positive
/// integer, else the machine's available parallelism.
pub fn available_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Ok(v) = std::env::var("RASENGAN_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, usize::from)
    })
}

/// Resolves an optional explicit thread request against the environment
/// default; always at least 1.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.max(1),
        None => available_threads(),
    }
}

/// Splits `0..total` into at most `parts` contiguous, order-preserving
/// ranges of near-equal length (first ranges get the remainder).
///
/// Used to assign whole work slabs — e.g. groups of per-shot sampling
/// jobs — to [`par_map`] workers while keeping the global index order
/// intact, which is what makes slabbed results byte-identical to
/// sequential execution at any thread count.
#[must_use]
pub fn split_ranges(total: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, total.max(1));
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Maps `f` over `items` on up to `threads` scoped threads, returning
/// results in input order.
///
/// `f` receives the item's index alongside the item, which is how
/// callers derive per-item RNG streams. The first chunk runs on the
/// calling thread, so `threads == 1` (or a single item) degenerates to
/// a plain sequential loop with no spawn overhead.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    // Engine-level metrics hook: one `OnceLock` load when no registry
    // is installed, one counter bump per *call* (never per item) when
    // one is. Batch counts are how the observability layer sees work
    // distribution without touching the hot per-item path.
    if let Some(reg) = rasengan_obs::metrics::try_global() {
        reg.counter_add("qsim.par_map.calls", 1);
        reg.counter_add("qsim.par_map.items", items.len() as u64);
        reg.counter_add("qsim.par_map.batches", threads as u64);
    }
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut chunks = items.chunks(chunk);
    let first = chunks.next().unwrap_or(&[]);
    let mut results: Vec<Vec<R>> = Vec::with_capacity(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .enumerate()
            .map(|(i, slice)| {
                let f = &f;
                let base = (i + 1) * chunk;
                s.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(j, t)| f(base + j, t))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        results.push(first.iter().enumerate().map(|(j, t)| f(j, t)).collect());
        for h in handles {
            results.push(h.join().expect("parallel worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// Runs `kernel(base_index, chunk)` over disjoint contiguous chunks of
/// `data`, in parallel when the slice is large enough to amortize
/// spawning.
///
/// `unit` is the chunk alignment: every chunk boundary is a multiple of
/// `unit`, so a kernel whose index pairs live within aligned
/// `unit`-blocks (e.g. the `(i, i | 1 << q)` pairs of a single-qubit
/// gate with `unit = 2^(q+1)`) never crosses a chunk. Results are
/// bit-identical at any thread count because each element is written by
/// exactly one kernel invocation with the same global index.
pub fn par_chunks_aligned<T, F>(data: &mut [T], unit: usize, min_len: usize, kernel: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = data.len();
    let threads = available_threads();
    if threads <= 1 || len < min_len || unit >= len {
        kernel(0, data);
        return;
    }
    let chunk = len.div_ceil(threads).div_ceil(unit) * unit;
    std::thread::scope(|s| {
        for (i, slice) in data.chunks_mut(chunk).enumerate() {
            let kernel = &kernel;
            s.spawn(move || kernel(i * chunk, slice));
        }
    });
}

/// A bounded multi-producer multi-consumer FIFO queue built on
/// `Mutex` + `Condvar` (std-only, like everything else in this module).
///
/// Producers use [`try_push`](BoundedQueue::try_push), which *never
/// blocks*: a full queue is an admission-control signal the caller must
/// handle (shed load, report busy), not something to wait out.
/// Consumers block in [`pop`](BoundedQueue::pop) until an item arrives
/// or the queue is closed and drained — so a pool of worker threads can
/// drain gracefully on shutdown.
///
/// Cloning shares the same underlying queue.
#[derive(Clone, Debug)]
pub struct BoundedQueue<T> {
    inner: Arc<QueueInner<T>>,
}

#[derive(Debug)]
struct QueueInner<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Arc::new(QueueInner {
                state: Mutex::new(QueueState {
                    items: VecDeque::with_capacity(capacity),
                    capacity,
                    closed: false,
                }),
                available: Condvar::new(),
            }),
        }
    }

    /// Attempts to enqueue without blocking. Returns the item back via
    /// `Err` when the queue is full or closed, so the caller can shed
    /// the work with a structured response instead of stalling.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.inner.state.lock().expect("queue poisoned");
        if state.closed || state.items.len() >= state.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        if let Some(reg) = rasengan_obs::metrics::try_global() {
            reg.counter_add("qsim.queue.pushed", 1);
            reg.gauge_set("qsim.queue.depth", depth as i64);
            reg.gauge_max("qsim.queue.depth_max", depth as i64);
        }
        self.inner.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and dequeues it. Returns
    /// `None` once the queue is closed *and* empty — the worker-exit
    /// signal for graceful drain.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.inner.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                let depth = state.items.len();
                drop(state);
                if let Some(reg) = rasengan_obs::metrics::try_global() {
                    reg.gauge_set("qsim.queue.depth", depth as i64);
                }
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.inner.available.wait(state).expect("queue poisoned");
        }
    }

    /// Closes the queue: further pushes fail, and consumers drain the
    /// remaining items before `pop` starts returning `None`.
    pub fn close(&self) {
        let mut state = self.inner.state.lock().expect("queue poisoned");
        state.closed = true;
        drop(state);
        self.inner.available.notify_all();
    }

    /// Items currently queued (a snapshot; stale by the time it returns).
    pub fn len(&self) -> usize {
        self.inner.state.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is currently empty (a snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.inner.state.lock().expect("queue poisoned").capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_avalanches_nearby_seeds() {
        // The old additive scheme made seed and seed ± k*0x9E37 collide
        // across streams; the finalizer must not.
        let a = derive_seed(5, 1);
        let b = derive_seed(5 + 0x9E37, 0);
        let c = derive_seed(5, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // And it is a pure function.
        assert_eq!(derive_seed(5, 1), a);
    }

    #[test]
    fn splitmix_is_bijective_on_samples() {
        use std::collections::HashSet;
        let outputs: HashSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outputs.len(), 10_000);
    }

    #[test]
    fn split_ranges_covers_in_order() {
        for (total, parts) in [(0, 4), (1, 4), (7, 3), (8, 3), (13, 4), (100, 7), (5, 9)] {
            let ranges = split_ranges(total, parts);
            let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
            assert_eq!(flat, (0..total).collect::<Vec<_>>(), "{total}/{parts}");
            assert!(ranges.len() <= parts.max(1));
            if let (Some(min), Some(max)) = (
                ranges.iter().map(ExactSizeIterator::len).min(),
                ranges.iter().map(ExactSizeIterator::len).max(),
            ) {
                assert!(
                    max - min <= 1,
                    "unbalanced split {total}/{parts}: {ranges:?}"
                );
            }
        }
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 7, 64] {
            let got = par_map(&items, threads, |i, &x| x * 3 + i as u64);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_edge_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[42], 8, |i, &x| (i, x)), vec![(0, 42)]);
    }

    #[test]
    fn par_chunks_respects_alignment_and_indices() {
        let mut data: Vec<usize> = vec![0; 1 << 10];
        // Force the parallel path with a tiny min_len; each element gets
        // its own global index, pairs within unit-4 blocks.
        par_chunks_aligned(&mut data, 4, 1, |base, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = base + i;
            }
        });
        let expect: Vec<usize> = (0..1 << 10).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn resolve_threads_floor_is_one() {
        assert_eq!(resolve_threads(Some(0)), 1);
        assert_eq!(resolve_threads(Some(3)), 3);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn bounded_queue_sheds_when_full() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "a full queue must refuse work");
        assert_eq!(q.len(), 2);
        assert_eq!(q.capacity(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "space freed by pop is reusable");
    }

    #[test]
    fn bounded_queue_drains_after_close() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err("c"), "closed queue refuses work");
        // Remaining items drain in FIFO order before the exit signal.
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "closed-and-empty stays terminal");
    }

    #[test]
    fn bounded_queue_hands_items_across_threads() {
        let q: BoundedQueue<usize> = BoundedQueue::new(64);
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        for i in 0..50 {
            while q.try_push(i).is_err() {
                std::thread::yield_now();
            }
        }
        q.close();
        let mut got = consumer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }
}
