//! A zero-dependency `std::thread` worker pool — the shared executor
//! behind every embarrassingly-parallel engine in the workspace: the
//! fingerprinting campaign shards its (mode × block-type × workload) cell
//! cross product over it, the crash harness its crash states, the serving
//! layer its client sessions. One implementation, three consumers, one
//! primitive:
//!
//! * [`WorkerPool::shard`] (and [`WorkerPool::shard_fine`], the same with
//!   one item per claim): a slice of work items is claimed in chunks from
//!   a shared atomic cursor, each worker folds its chunks into a private
//!   accumulator (a counter map, a keyed cell list, ...), and the
//!   accumulators are merged on the caller's thread once every worker has
//!   joined — the barrier.
//!
//! With one thread it degrades to a plain sequential loop on the calling
//! thread — no pool, no atomics — so a `threads = 1` configuration is an
//! honest single-threaded baseline. Merging must be commutative: chunk
//! claiming is racy, so which worker sees which item is nondeterministic.
//! Consumers re-establish determinism downstream — the campaign engine
//! merges cells by their unique `(mode, row, col)` key.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Upper bound on the chunk size workers claim per cursor fetch.
const MAX_CHUNK: usize = 1024;
/// Chunks-per-worker target; >1 so fast workers steal from slow ones.
const CHUNKS_PER_WORKER: usize = 8;

/// A fixed-width worker pool. Threads are scoped: each call spawns and
/// joins its own gang, so the pool holds no state beyond the width.
#[derive(Clone, Copy, Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// A pool as wide as the machine (`available_parallelism`, or 1 when
    /// that cannot be determined).
    pub fn auto() -> Self {
        WorkerPool::new(thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The pool for a `threads` option where `0` means "one worker per
    /// hardware thread" (campaigns, serving): `threads` workers otherwise.
    pub fn sized(threads: usize) -> Self {
        if threads == 0 {
            WorkerPool::auto()
        } else {
            WorkerPool::new(threads)
        }
    }

    /// The configured width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Shard `items` across the pool: every worker folds claimed chunks
    /// into its own `A` via `work`, then the per-shard accumulators are
    /// merged into one at the join barrier via `merge` (which must be
    /// commutative and associative — see module docs).
    pub fn shard<T, A, W, M>(&self, items: &[T], work: W, merge: M) -> A
    where
        T: Sync,
        A: Default + Send,
        W: Fn(&mut A, &T) + Sync,
        M: Fn(&mut A, A),
    {
        let chunk = (items.len() / (self.threads * CHUNKS_PER_WORKER)).clamp(1, MAX_CHUNK);
        self.shard_chunked(items, chunk, work, merge)
    }

    /// Like [`Self::shard`], but workers claim exactly one item at a time.
    ///
    /// For coarse-grained, long-running items — whole client sessions, full
    /// campaign cells — where one slow item per claim is the unit of load
    /// imbalance and cursor traffic is negligible next to item cost.
    pub fn shard_fine<T, A, W, M>(&self, items: &[T], work: W, merge: M) -> A
    where
        T: Sync,
        A: Default + Send,
        W: Fn(&mut A, &T) + Sync,
        M: Fn(&mut A, A),
    {
        self.shard_chunked(items, 1, work, merge)
    }

    fn shard_chunked<T, A, W, M>(&self, items: &[T], chunk: usize, work: W, merge: M) -> A
    where
        T: Sync,
        A: Default + Send,
        W: Fn(&mut A, &T) + Sync,
        M: Fn(&mut A, A),
    {
        if self.threads == 1 || items.len() <= 1 {
            let mut acc = A::default();
            for item in items {
                work(&mut acc, item);
            }
            return acc;
        }
        let cursor = AtomicUsize::new(0);
        let shards: Vec<A> = thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut acc = A::default();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= items.len() {
                                break;
                            }
                            let end = (start + chunk).min(items.len());
                            for item in &items[start..end] {
                                work(&mut acc, item);
                            }
                        }
                        acc
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let mut out = A::default();
        for shard in shards {
            merge(&mut out, shard);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn shard_visits_every_item_exactly_once() {
        let items: Vec<u64> = (0..10_000).collect();
        for threads in [1, 2, 4, 7] {
            let pool = WorkerPool::new(threads);
            let seen: BTreeSet<u64> = pool.shard(
                &items,
                |acc: &mut BTreeSet<u64>, &i| {
                    assert!(acc.insert(i), "item folded twice within a shard");
                },
                |out, shard| {
                    for i in shard {
                        assert!(out.insert(i), "item claimed by two shards");
                    }
                },
            );
            assert_eq!(seen.len(), items.len(), "threads={threads}");
        }
    }

    #[test]
    fn shard_sum_matches_sequential() {
        let items: Vec<u64> = (1..=5000).collect();
        let expect: u64 = items.iter().sum();
        for threads in [1, 3, 8] {
            let pool = WorkerPool::new(threads);
            let sum: u64 = pool.shard(&items, |acc, &i| *acc += i, |out, shard| *out += shard);
            assert_eq!(sum, expect);
        }
    }

    #[test]
    fn shard_fine_visits_every_item_exactly_once() {
        let items: Vec<u64> = (0..2_000).collect();
        for threads in [1, 2, 5, 8] {
            let pool = WorkerPool::new(threads);
            let seen: BTreeSet<u64> = pool.shard_fine(
                &items,
                |acc: &mut BTreeSet<u64>, &i| {
                    assert!(acc.insert(i), "item folded twice within a shard");
                },
                |out, shard| {
                    for i in shard {
                        assert!(out.insert(i), "item claimed by two shards");
                    }
                },
            );
            assert_eq!(seen.len(), items.len(), "threads={threads}");
        }
    }

    #[test]
    fn shard_handles_empty_and_tiny_inputs() {
        let pool = WorkerPool::new(4);
        let none: Vec<u32> = Vec::new();
        let sum: u32 = pool.shard(&none, |acc, &i| *acc += i, |out, s| *out += s);
        assert_eq!(sum, 0);
        let one = vec![41u32];
        let sum: u32 = pool.shard(&one, |acc, &i| *acc += i + 1, |out, s| *out += s);
        assert_eq!(sum, 42);
    }

    #[test]
    fn width_is_clamped_to_one() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert_eq!(WorkerPool::new(8).threads(), 8);
        assert!(WorkerPool::auto().threads() >= 1);
        assert_eq!(WorkerPool::sized(3).threads(), 3);
        assert_eq!(WorkerPool::sized(0).threads(), WorkerPool::auto().threads());
    }
}
