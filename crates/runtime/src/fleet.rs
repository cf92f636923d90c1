//! Deterministic multi-threaded fleet execution.
//!
//! Fleet-scale evaluation (many scenarios × seeds × goal variants) is
//! embarrassingly parallel: every shard owns its own seeded RNG, its own
//! plant, and its own [`ControlPlane`](crate::ControlPlane), so shards
//! never share mutable state. The [`FleetExecutor`] exploits that: it
//! shards a work-item list across `std::thread::scope` workers and
//! merges results back **in work-item order**, so the output is
//! byte-identical whether it ran on 1 thread or N — parallelism is a
//! pure wall-clock optimization, never an observable behavior change.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Shards work items across a fixed pool of scoped worker threads and
/// merges the results deterministically.
///
/// Workers claim items from a shared atomic cursor (dynamic scheduling,
/// so one slow shard does not idle the rest of the pool), but each
/// result is keyed by its item index and the merged vector is returned
/// in item order. As long as the shard function is a pure function of
/// `(index, item)`, the output is identical at any thread count.
///
/// # Example
///
/// ```
/// use smartconf_runtime::{shard_seed, FleetExecutor};
///
/// let items: Vec<u64> = (0..100).collect();
/// let run = |i: usize, seed: &u64| shard_seed(*seed, i as u64) % 97;
/// let serial = FleetExecutor::new(1).execute(&items, run);
/// let parallel = FleetExecutor::new(8).execute(&items, run);
/// assert_eq!(serial, parallel); // byte-identical at 1 vs 8 threads
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetExecutor {
    threads: NonZeroUsize,
    /// Items claimed per cursor bump; one unless overridden.
    chunk: NonZeroUsize,
}

impl FleetExecutor {
    /// Creates an executor with the given worker count.
    ///
    /// The count is clamped to ≥ 1: `new(0)` behaves exactly like
    /// `new(1)` (a serial executor), it does not panic. There is no
    /// upper clamp — `new(usize::MAX)` is accepted and
    /// [`FleetExecutor::threads`] reports it verbatim — because
    /// [`FleetExecutor::execute`] never spawns more workers than there
    /// are work items, so an oversized executor costs nothing.
    ///
    /// ```
    /// use smartconf_runtime::FleetExecutor;
    ///
    /// assert_eq!(FleetExecutor::new(0).threads(), 1); // clamped
    /// assert_eq!(FleetExecutor::new(usize::MAX).threads(), usize::MAX);
    /// ```
    pub fn new(threads: usize) -> Self {
        FleetExecutor {
            threads: NonZeroUsize::new(threads.max(1)).expect("max(1) is non-zero"),
            chunk: NonZeroUsize::MIN,
        }
    }

    /// Overrides the claim granularity: workers advance the shared
    /// cursor by `chunk` items per claim instead of one. A chunk of 0 is
    /// clamped to 1; oversized chunks (up to `usize::MAX`) are capped at
    /// the item count per `execute` call.
    ///
    /// Chunking only changes *which worker* runs an item, never the
    /// merged output order, so results stay byte-identical at any
    /// `(threads, chunk)` combination.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = NonZeroUsize::new(chunk.max(1)).expect("max(1) is non-zero");
        self
    }

    /// An executor sized to the machine: one worker per available core
    /// (falling back to 1 when parallelism cannot be queried).
    pub fn available_parallelism() -> Self {
        FleetExecutor::new(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Maps `run` over `items` on the worker pool and returns the
    /// results in item order.
    ///
    /// `run` receives the item's index alongside the item so shards can
    /// derive per-shard seeds (see [`shard_seed`]). A single-thread
    /// executor short-circuits to a plain serial loop — the reference
    /// order that N-thread runs must reproduce.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker after all workers finish.
    pub fn execute<I, O, F>(&self, items: &[I], run: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        if self.threads.get() == 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, it)| run(i, it)).collect();
        }
        let workers = self.threads.get().min(items.len());
        // Workers claim one item per cursor bump by default: shards cost
        // milliseconds, so the bump is free next to them, while coarser
        // claims of uneven shards leave one worker idle at the end of a
        // run for a share of wall time that changes from run to run. The
        // cap at the item count keeps the cursor far from overflow even
        // with a `usize::MAX` chunk override.
        let chunk = self.chunk.get().min(items.len());
        let cursor = AtomicUsize::new(0);
        let mut tagged: Vec<(usize, O)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        // Pre-sized for an even split plus one extra
                        // claim, so steady-state pushes never reallocate.
                        let mut local = Vec::with_capacity(items.len() / workers + chunk);
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= items.len() {
                                break;
                            }
                            let end = start.saturating_add(chunk).min(items.len());
                            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                                local.push((i, run(i, item)));
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("fleet worker panicked"))
                .collect()
        });
        tagged.sort_unstable_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, out)| out).collect()
    }
}

/// Derives a per-shard RNG seed from a base seed and a work-item index.
///
/// Uses a SplitMix64 finalizer so neighboring indices produce
/// well-separated seeds (index `i` and `i+1` differ in ~half their
/// bits), while staying a pure function of `(base, index)` — the
/// property fleet determinism rests on.
///
/// ```
/// use smartconf_runtime::shard_seed;
///
/// assert_eq!(shard_seed(42, 3), shard_seed(42, 3));
/// assert_ne!(shard_seed(42, 3), shard_seed(42, 4));
/// ```
pub fn shard_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        /// Satellite property: the executor's output is a pure function
        /// of the work items — identical at 1, 2, and 8 worker threads.
        #[test]
        fn executor_output_is_identical_across_thread_counts(
            items in proptest::collection::vec(0u64..u64::MAX, 0..50),
            base in 0u64..u64::MAX,
        ) {
            let run = |threads: usize| {
                FleetExecutor::new(threads).execute(&items, |i, &x| shard_seed(base, i as u64) ^ x)
            };
            let reference = run(1);
            proptest::prop_assert_eq!(&run(2), &reference);
            proptest::prop_assert_eq!(&run(8), &reference);
        }
    }

    proptest::proptest! {
        /// Satellite property: chunked claiming (1, 4, 16, usize::MAX)
        /// yields exactly the serial reference output order, for ragged
        /// item counts — empty, singleton, fewer items than workers, and
        /// many more items than workers.
        #[test]
        fn chunked_claiming_matches_serial_reference(
            count_pick in 0usize..4,
            threads in 2usize..9,
            base in 0u64..u64::MAX,
        ) {
            let count = [0usize, 1, 3, 97][count_pick]; // workers come from 2..9
            let items: Vec<u64> = (0..count as u64).collect();
            let run = |i: usize, x: &u64| shard_seed(base, i as u64) ^ *x;
            let reference = FleetExecutor::new(1).execute(&items, run);
            for chunk in [1usize, 4, 16, usize::MAX] {
                let out = FleetExecutor::new(threads).with_chunk(chunk).execute(&items, run);
                proptest::prop_assert_eq!(&out, &reference, "chunk {}", chunk);
            }
            // The default (one item per claim) must agree too.
            let default = FleetExecutor::new(threads).execute(&items, run);
            proptest::prop_assert_eq!(&default, &reference);
        }
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = FleetExecutor::new(4).execute(&items, |i, &x| {
            // Stagger finish order so late items complete before early ones.
            if i % 7 == 0 {
                thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 10
        });
        assert_eq!(out, (0..64).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let items: Vec<u64> = (0..50).collect();
        let run = |i: usize, seed: &u64| shard_seed(*seed, i as u64);
        let reference = FleetExecutor::new(1).execute(&items, run);
        for threads in [2, 3, 8, 32] {
            assert_eq!(FleetExecutor::new(threads).execute(&items, run), reference);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let exec = FleetExecutor::new(8);
        assert_eq!(exec.execute(&[] as &[u64], |_, &x| x), Vec::<u64>::new());
        assert_eq!(exec.execute(&[9u64], |i, &x| x + i as u64), vec![9]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(FleetExecutor::new(0).threads(), 1);
        assert_eq!(FleetExecutor::new(0), FleetExecutor::new(1));
    }

    #[test]
    fn usize_max_threads_is_capped_by_item_count() {
        // The clamp has no upper bound, but execute() spawns at most one
        // worker per item — so a usize::MAX executor must not try to
        // spawn usize::MAX threads (it would abort the process).
        let exec = FleetExecutor::new(usize::MAX);
        assert_eq!(exec.threads(), usize::MAX);
        let items: Vec<u64> = (0..6).collect();
        let out = exec.execute(&items, |i, &x| x + i as u64);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn shard_seeds_are_well_separated() {
        let a = shard_seed(42, 0);
        let b = shard_seed(42, 1);
        assert_ne!(a, b);
        // Different bases must decorrelate too.
        assert_ne!(shard_seed(1, 5), shard_seed(2, 5));
    }
}
