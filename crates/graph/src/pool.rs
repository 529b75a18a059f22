//! The workspace's one deterministic worker pool and its width rule.
//!
//! [`parallel_map`] maps a pure-by-index function over `0..n` on
//! scoped threads and returns results **in index order**, so callers
//! get the exact output a serial `(0..n).map(f).collect()` would
//! produce — the pool trades wall-clock for cores, never determinism.
//! Work is distributed by an atomic cursor (not pre-chunked), so
//! uneven item costs self-balance, and the calling thread works
//! alongside the workers it spawns.
//!
//! [`width`] is how many workers a job that sizes itself may use: the
//! host's cores, except on a pool worker, where it is 1 — a map nested
//! inside another map's item runs inline instead of multiplying the
//! threads. [`workers`] adds a job's fork floor to that rule, and
//! [`with_width`] pins the width for one call, so tests compare the
//! same computation at several widths.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// This thread's pinned width, if any: 1 on pool workers, or what
    /// [`with_width`] set.
    static PINNED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Workers a self-sizing job may use on this thread: the host's
/// logical CPUs, 1 on a pool worker, or the width pinned by
/// [`with_width`].
pub fn width() -> usize {
    PINNED
        .get()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Workers for a job of `work` units that only pays for a fork with at
/// least `floor` units per worker: [`workers_at`] the host's
/// [`width`]. A width pinned by [`with_width`] is taken as given,
/// floor or not, so small inputs can be compared across widths.
pub fn workers(work: usize, floor: usize) -> usize {
    match PINNED.get() {
        Some(pinned) => pinned,
        None => workers_at(width(), work, floor),
    }
}

/// The fork-floor rule at `width` workers: `width` capped so every
/// worker gets at least `floor` of the `work` units, and at least 1.
pub fn workers_at(width: usize, work: usize, floor: usize) -> usize {
    width.min(work / floor.max(1)).max(1)
}

/// Runs `f` with [`width`] (and [`workers`]) pinned to `width` on this
/// thread, then restores the previous setting.
pub fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED.set(self.0);
        }
    }
    let _restore = Restore(PINNED.replace(Some(width.max(1))));
    f()
}

/// Computes `f(0), f(1), …, f(n-1)` on up to `threads` threads — the
/// caller's included — and returns the results in index order.
/// `threads` is clamped to `1..=n`; with one thread (or `n <= 1`) the
/// map runs inline on the caller's thread. `f` must not depend on
/// evaluation order — each index's seed/config must derive from the
/// index alone. Inside a multi-threaded map every thread runs at
/// [`width`] 1.
///
/// Panics in `f` propagate to the caller (the scope re-raises them),
/// so a failing item fails the whole map rather than vanishing.
pub fn parallel_map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let work = || {
        with_width(1, || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let v = f(i);
            results.lock().expect("no worker panicked")[i] = Some(v);
        })
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    results
        .into_inner()
        .expect("no worker panicked")
        .into_iter()
        .map(|v| v.expect("every index computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order_at_any_width() {
        let serial: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [0, 1, 2, 4, 9, 200] {
            assert_eq!(
                parallel_map(threads, 100, |i| i * i),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(parallel_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn nested_maps_run_inline() {
        let inner = parallel_map(3, 6, |_| (width(), workers(usize::MAX, 1)));
        assert_eq!(inner, vec![(1, 1); 6]);
    }

    #[test]
    fn workers_respect_the_floor_unless_pinned() {
        let host = with_width(4, width);
        assert_eq!(host, 4);
        assert_eq!(workers(0, 100), 1);
        assert_eq!(with_width(3, || workers(0, 100)), 3);
        assert_eq!(workers(199, 100), 1);
        assert_eq!(workers_at(8, 199, 100), 1);
        assert_eq!(workers_at(8, 200, 100), 2);
        assert_eq!(workers_at(8, 10_000, 100), 8);
        assert_eq!(workers_at(0, 10_000, 0), 1);
        assert!(workers(usize::MAX, 100) <= width());
        // Pins nest and restore.
        with_width(2, || {
            assert_eq!(width(), 2);
            with_width(5, || assert_eq!(width(), 5));
            assert_eq!(width(), 2);
        });
    }
}
