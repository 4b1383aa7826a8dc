//! Deterministic data-parallel fan-out.
//!
//! Every parallel surface in the workspace — SA reads, annealer reads,
//! batch solves, grid sweeps — follows the same contract: the work items
//! are independent, each item's randomness is derived from its *index*
//! (never from which thread runs it), and the output order is the input
//! order. Under that contract the thread count is a pure throughput knob:
//! results are bit-identical for any value. This module is the single
//! implementation of that fan-out, so the chunking/indexing logic exists
//! in exactly one place.

/// Resolves a thread-count knob: `0` means all available cores.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Maps `f` over `items` across up to `threads` scoped worker threads
/// (`0` = all available cores), returning the results **in input order**.
///
/// `f` receives `(index, &item)`; any per-item randomness must derive from
/// the index (or data reachable from the item), never from thread identity,
/// so the output is bit-identical for every thread count.
///
/// # Panics
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn parallel_map_indexed<S, T, F>(items: &[S], threads: usize, f: F) -> Vec<T>
where
    S: Sync,
    T: Send,
    F: Fn(usize, &S) -> T + Sync,
{
    parallel_map_chunks(items, threads, |base, chunk| {
        chunk
            .iter()
            .enumerate()
            .map(|(off, item)| f(base + off, item))
            .collect()
    })
}

/// Splits `items` into one contiguous chunk per worker thread (`0` = all
/// available cores) and maps each chunk with `f(base_index, chunk)`, which
/// must return one result per item; the results come back **in input
/// order**. Kernels that advance a whole chunk together (lockstep anneal
/// reads) use this directly; [`parallel_map_indexed`] is its per-item form.
///
/// The same contract holds: per-item randomness derives from the item's
/// index, never from the chunk boundaries, so the output is bit-identical
/// for every thread count.
///
/// # Panics
/// Propagates a panic from `f` (the scope joins all workers first), and
/// panics when `f` returns the wrong number of results for a chunk.
pub fn parallel_map_chunks<S, T, F>(items: &[S], threads: usize, f: F) -> Vec<T>
where
    S: Sync,
    T: Send,
    F: Fn(usize, &[S]) -> Vec<T> + Sync,
{
    let threads = resolve_threads(threads).min(items.len().max(1));
    let run = |base: usize, chunk: &[S]| {
        let out = f(base, chunk);
        assert_eq!(
            out.len(),
            chunk.len(),
            "parallel_map_chunks: one result per item"
        );
        out
    };
    if threads <= 1 {
        return run(0, items);
    }
    let chunk = items.len().div_ceil(threads);
    let parts: Vec<Vec<T>> = std::thread::scope(|scope| {
        let workers: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(chunk_idx, item_chunk)| {
                let run = &run;
                scope.spawn(move || run(chunk_idx * chunk, item_chunk))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..23).collect();
        let serial = parallel_map_indexed(&items, 1, |i, &x| (i as u64) * 1000 + x * x);
        for threads in [2, 3, 7, 23, 100, 0] {
            let parallel = parallel_map_indexed(&items, threads, |i, &x| (i as u64) * 1000 + x * x);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn index_matches_position() {
        let items = vec!["a", "b", "c", "d", "e"];
        let out = parallel_map_indexed(&items, 2, |i, &s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = parallel_map_indexed(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn chunks_are_contiguous_and_reassemble_in_order() {
        let items: Vec<u64> = (0..23).collect();
        for threads in [1, 2, 3, 7, 23, 100, 0] {
            let out = parallel_map_chunks(&items, threads, |base, chunk| {
                // Each chunk starts at its base index and is contiguous.
                assert_eq!(chunk[0], base as u64);
                chunk.iter().map(|&x| (base as u64, x)).collect()
            });
            let values: Vec<u64> = out.iter().map(|&(_, x)| x).collect();
            assert_eq!(values, items, "threads={threads}");
            let chunks = out.windows(2).filter(|w| w[0].0 != w[1].0).count() + 1;
            assert!(chunks <= resolve_threads(threads), "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_resolves_to_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
