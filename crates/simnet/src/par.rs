//! Deterministic fan-out across OS threads.
//!
//! The measurement side of the reproduction is embarrassingly parallel:
//! Teleport sessions are mutually independent (each is a fresh app launch
//! against its own broadcast with its own `session/{i}` RNG label), every
//! bandwidth-sweep point owns a `dataset-limit-{i}` RNG child, and each
//! time-of-day crawl builds its own `world-at-{h}` service. [`indexed_map`]
//! exploits that: work items are executed on a pool of scoped OS threads
//! and the results are reassembled **in input order**, so the output is
//! byte-identical to a serial run no matter how many workers ran or how
//! the scheduler interleaved them. Determinism therefore rests on two
//! properties the caller must uphold (and every call site in this
//! workspace does):
//!
//! 1. the work function draws randomness only from RNG streams keyed on
//!    the item's *index or label*, never from a shared sequential stream;
//! 2. the work function does not mutate shared state (it takes `&self`
//!    receivers only — the compiler enforces this via the `Sync` bounds).
//!
//! No external dependencies: plain `std::thread::scope` with an atomic
//! work-stealing counter. Threads are cheap at this granularity — one
//! session is 3–5 ms of CPU work, so spawning a handful of workers per
//! dataset (or per batch of a scale run) is noise; what is not noise is a
//! barrier every few sessions, which is why callers hand the driver one
//! long item list rather than many short ones.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Resolves a thread-count knob to a concrete worker count.
///
/// `n > 0` is taken literally (`1` forces the exact serial code path).
/// `n == 0` means *auto*: the `PSCP_THREADS` environment variable if it
/// parses to a positive integer, otherwise the machine's available
/// parallelism, falling back to 1 when that cannot be determined.
pub fn resolve_threads(n: usize) -> usize {
    if n > 0 {
        return n;
    }
    if let Ok(v) = std::env::var("PSCP_THREADS") {
        if let Ok(k) = v.trim().parse::<usize>() {
            if k > 0 {
                return k;
            }
        }
    }
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// [`indexed_map_timed`] without the profile.
pub fn indexed_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    indexed_map_timed(items, threads, f).0
}

/// Wall-clock accounting for [`indexed_map_timed`] calls.
///
/// Strictly profiling data: none of it feeds back into simulation state.
#[derive(Debug, Clone)]
pub struct ParProfile {
    /// Workers that actually ran (1 = the inline serial path).
    pub workers: usize,
    /// Wall-clock seconds for the whole map.
    pub wall_secs: f64,
    /// Seconds each worker spent inside the work function (one entry per
    /// worker; the gap to `wall_secs` is that worker's idle tail).
    pub busy_secs: Vec<f64>,
}

impl Default for ParProfile {
    /// The profile of a map that never ran: one idle inline worker.
    fn default() -> Self {
        ParProfile { workers: 1, wall_secs: 0.0, busy_secs: vec![0.0] }
    }
}

impl ParProfile {
    /// Summed busy time across all workers.
    pub fn busy_total(&self) -> f64 {
        self.busy_secs.iter().sum()
    }

    /// Busy fraction of the worker capacity, `busy / (workers × wall)`.
    pub fn efficiency(&self) -> f64 {
        self.busy_total() / (self.workers as f64 * self.wall_secs).max(1e-9)
    }

    /// Adds the profile of a map that ran after this one: walls add up,
    /// worker `k`'s busy time adds to worker `k`'s.
    pub fn absorb(&mut self, next: &ParProfile) {
        self.workers = self.workers.max(next.workers);
        self.wall_secs += next.wall_secs;
        if self.busy_secs.len() < next.busy_secs.len() {
            self.busy_secs.resize(next.busy_secs.len(), 0.0);
        }
        for (mine, theirs) in self.busy_secs.iter_mut().zip(&next.busy_secs) {
            *mine += theirs;
        }
    }
}

/// Applies `f` to every item of `items` on up to `threads` worker threads
/// (`0` = auto, see [`resolve_threads`]) and returns the results in input
/// order, with the wall-clock profile of the map.
///
/// `f` receives `(index, &item)`. With one worker (or one item) the work
/// runs inline on the caller's thread — no spawn, exactly the serial loop,
/// busy for as long as it runs. With more, workers pull indices from a
/// shared atomic counter (cheap dynamic load balancing: session costs vary
/// by broadcast popularity) and results are reassembled by index
/// afterwards, so scheduling order never leaks into the output; each
/// worker times the items it ran (two `Instant::now()` per multi-ms item).
/// A panic in any worker propagates to the caller.
pub fn indexed_map_timed<T, R, F>(items: &[T], threads: usize, f: F) -> (Vec<R>, ParProfile)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = resolve_threads(threads).min(items.len()).max(1);
    let started = Instant::now();
    if workers == 1 {
        let out = items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        let wall_secs = started.elapsed().as_secs_f64();
        return (out, ParProfile { workers, wall_secs, busy_secs: vec![wall_secs] });
    }
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, R)> = Vec::with_capacity(items.len());
    let mut busy_secs: Vec<f64> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut busy = 0.0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let t0 = Instant::now();
                        local.push((i, f(i, &items[i])));
                        busy += t0.elapsed().as_secs_f64();
                    }
                    (local, busy)
                })
            })
            .collect();
        for h in handles {
            let (local, busy) = h.join().expect("parallel worker panicked");
            collected.extend(local);
            busy_secs.push(busy);
        }
    });
    collected.sort_by_key(|&(i, _)| i);
    let out = collected.into_iter().map(|(_, r)| r).collect();
    (out, ParProfile { workers, wall_secs: started.elapsed().as_secs_f64(), busy_secs })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_thread_count_wins() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = indexed_map(&items, 8, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..57).collect();
        let work = |_: usize, &x: &u64| {
            // A little arithmetic so workers genuinely interleave.
            (0..1000u64).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
        };
        let serial = indexed_map(&items, 1, work);
        for threads in [2, 3, 8] {
            assert_eq!(serial, indexed_map(&items, threads, work), "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_items_ok() {
        let out = indexed_map(&[1, 2, 3], 64, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn profile_has_one_busy_entry_per_worker() {
        let items: Vec<u64> = (0..40).collect();
        let work = |i: usize, &x: &u64| x.wrapping_mul(17).wrapping_add(i as u64);
        let serial = indexed_map(&items, 1, work);
        for (threads, workers) in [(1, 1), (4, 4), (64, 40)] {
            let (out, profile) = indexed_map_timed(&items, threads, work);
            assert_eq!(out, serial, "threads={threads}");
            assert_eq!(profile.workers, workers);
            assert_eq!(profile.busy_secs.len(), workers);
            assert!(profile.wall_secs >= 0.0 && profile.busy_total() >= 0.0);
            assert!((0.0..=1.0 + 1e-9).contains(&profile.efficiency()), "{profile:?}");
        }
    }

    #[test]
    fn empty_input_runs_inline_and_idle() {
        let (out, profile) = indexed_map_timed(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(profile.workers, 1);
        assert_eq!(profile.busy_secs.len(), 1);
    }

    #[test]
    fn profiles_of_successive_maps_add_up() {
        let mut total = ParProfile::default();
        assert_eq!(total.efficiency(), 0.0);
        total.absorb(&ParProfile { workers: 1, wall_secs: 1.0, busy_secs: vec![1.0] });
        total.absorb(&ParProfile { workers: 2, wall_secs: 2.0, busy_secs: vec![2.0, 1.0] });
        assert_eq!(total.workers, 2);
        assert_eq!(total.wall_secs, 3.0);
        assert_eq!(total.busy_secs, vec![3.0, 1.0]);
        assert!((total.efficiency() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        indexed_map(&items, 4, |_, &x| {
            if x == 7 {
                panic!("boom");
            }
            x
        });
    }
}
