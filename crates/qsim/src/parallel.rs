//! Deterministic scoped-thread parallelism.
//!
//! Every parallel construct in the workspace is built on two rules that
//! together make results **bit-identical at any thread count**:
//!
//! 1. *Work is split by index, never by arrival order.* [`par_slabs`]
//!    assigns contiguous index ranges to worker threads, each with a
//!    scratch of its own that outlives the call, and [`par_map`] built
//!    on it returns results in input order, so any reduction the caller
//!    performs runs in the same order as a sequential loop.
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
use std::ops::Range;
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

/// Runs `f(slab, scratch)` over contiguous slabs of the index range
/// `0..total`, one slab per worker scratch, and returns how many workers
/// ran: `scratch.len()`, or `total` when that is smaller (at least one).
///
/// Worker `i` gets the `i`-th of near-equal slabs in index order (the
/// first slabs take the remainder) and `scratch[i]` to work in. The
/// primitive never clears or replaces a scratch, so buffers a worker
/// grew keep their capacity for the next call; a worker that keeps
/// output there must clear it first, and the caller reads the outputs
/// of `scratch[..workers]` in index order. With one worker, `f` runs
/// inline on the calling thread; otherwise the first slab runs there
/// and the rest on scoped threads. Each call is one fan-out for the
/// `qsim.par_map.*` counters.
///
/// # Panics
///
/// Panics if `scratch` is empty, or if `f` panics on any worker.
pub fn par_slabs<S, F>(total: usize, scratch: &mut [S], f: F) -> usize
where
    S: Send,
    F: Fn(Range<usize>, &mut S) + Sync,
{
    assert!(!scratch.is_empty(), "par_slabs needs a worker scratch");
    let workers = scratch.len().min(total.max(1));
    // Engine-level metrics hook: one `OnceLock` load when no registry
    // is installed, one counter bump per *call* (never per item) when
    // one is. Batch counts are how the observability layer sees work
    // distribution without touching the hot per-item path.
    if let Some(reg) = rasengan_obs::metrics::try_global() {
        reg.counter_add("qsim.par_map.calls", 1);
        reg.counter_add("qsim.par_map.items", total as u64);
        reg.counter_add("qsim.par_map.batches", workers as u64);
    }
    let (base, extra) = (total / workers, total % workers);
    let slab = |i: usize| {
        let start = i * base + i.min(extra);
        start..start + base + usize::from(i < extra)
    };
    let (first, rest) = scratch[..workers].split_first_mut().expect("one worker");
    if rest.is_empty() {
        f(0..total, first);
        return 1;
    }
    std::thread::scope(|s| {
        for (i, worker) in rest.iter_mut().enumerate() {
            let (f, range) = (&f, slab(i + 1));
            s.spawn(move || f(range, worker));
        }
        f(slab(0), first);
    });
    workers
}

/// Maps `f` over `items` on up to `threads` scoped threads, returning
/// results in input order.
///
/// `f` receives the item's index alongside the item, which is how
/// callers derive per-item RNG streams. Each worker maps one contiguous
/// slab of items through [`par_slabs`], so `threads == 1` (or a single
/// item) degenerates to a plain sequential loop with no spawn overhead.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.clamp(1, items.len().max(1));
    let mut outputs: Vec<Vec<R>> = (0..workers).map(|_| Vec::new()).collect();
    par_slabs(items.len(), &mut outputs, |slab, out| {
        out.extend(slab.map(|i| f(i, &items[i])));
    });
    outputs.into_iter().flatten().collect()
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

    /// Serializes the tests that fan out, so the counter test reads
    /// only its own calls off the global registry.
    fn fanouts() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// One worker's scratch: the slabs it ran, and a buffer it keeps
    /// across calls.
    #[derive(Default)]
    struct Scratch {
        slabs: Vec<Range<usize>>,
        seen: Vec<usize>,
    }

    #[test]
    fn par_slabs_gives_each_worker_its_contiguous_slab() {
        let _serial = fanouts();
        for workers in 1..=8 {
            for total in [0, 1, 3, 7, 8, 13, 100] {
                let mut scratch: Vec<Scratch> = (0..workers).map(|_| Scratch::default()).collect();
                let used = par_slabs(total, &mut scratch, |slab, s| s.slabs.push(slab));
                let case = format!("{total} items, {workers} workers");
                assert_eq!(used, workers.min(total.max(1)), "{case}");
                // Each worker ran once, on the next slab in index order,
                // and the slabs differ in length by at most one.
                let mut next = 0;
                for s in &scratch[..used] {
                    assert_eq!(s.slabs.len(), 1, "{case}");
                    let slab = s.slabs[0].clone();
                    assert_eq!(slab.start, next, "{case}");
                    assert!(slab.len() == total / used || slab.len() == total / used + 1);
                    next = slab.end;
                }
                assert_eq!(next, total, "{case}");
                assert!(scratch[used..].iter().all(|s| s.slabs.is_empty()), "{case}");
            }
        }
    }

    #[test]
    fn par_slabs_leaves_worker_buffers_to_the_worker() {
        let _serial = fanouts();
        for workers in 1..=8 {
            let mut scratch: Vec<Scratch> = (0..workers).map(|_| Scratch::default()).collect();
            // Two calls append; the second keeps what the first left.
            for _ in 0..2 {
                par_slabs(50, &mut scratch, |slab, s| {
                    s.slabs.push(slab.clone());
                    s.seen.extend(slab);
                });
            }
            for s in &scratch {
                let own: Vec<usize> = s.slabs[0].clone().collect();
                assert_eq!(s.seen, [own.clone(), own].concat(), "{workers} workers");
            }
            // A worker that clears keeps the buffer it grew.
            let buffers: Vec<_> = scratch
                .iter()
                .map(|s| (s.seen.as_ptr(), s.seen.capacity()))
                .collect();
            par_slabs(50, &mut scratch, |slab, s| {
                s.seen.clear();
                s.seen.extend(slab);
            });
            let after: Vec<_> = scratch
                .iter()
                .map(|s| (s.seen.as_ptr(), s.seen.capacity()))
                .collect();
            assert_eq!(after, buffers, "{workers} workers reallocated");
        }
    }

    #[test]
    fn par_slabs_counts_one_fan_out_per_call() {
        let _serial = fanouts();
        let reg = rasengan_obs::metrics::install_global();
        let read =
            || ["calls", "items", "batches"].map(|c| reg.counter(&format!("qsim.par_map.{c}")));
        for workers in [1, 2, 5, 8] {
            let mut scratch: Vec<Scratch> = (0..workers).map(|_| Scratch::default()).collect();
            for total in [0, 3, 40] {
                let before = read();
                let used = par_slabs(total, &mut scratch, |slab, s| s.seen.extend(slab));
                let after = read();
                let delta = [0, 1, 2].map(|i| after[i] - before[i]);
                assert_eq!(
                    delta,
                    [1, total as u64, used as u64],
                    "{total} on {workers}"
                );
            }
            let before = read();
            let mapped = par_map(&[1, 2, 3], workers, |i, &x| (i, x));
            let after = read();
            assert_eq!(mapped, [(0, 1), (1, 2), (2, 3)], "par_map on {workers}");
            assert_eq!(after[0] - before[0], 1, "par_map on {workers}");
            assert_eq!(after[1] - before[1], 3, "par_map on {workers}");
        }
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let _serial = fanouts();
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
        let _serial = fanouts();
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
