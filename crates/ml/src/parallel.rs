//! Deterministic scoped-thread executor for the training engine.
//!
//! The same pattern label collection uses (`LabeledCorpus::collect`): a
//! fixed pool of scoped worker threads pulls cell indices from an atomic
//! counter and writes each result into its pre-allocated slot. Results
//! come back in index order, so as long as each cell is a pure function
//! of its index the output is bit-identical regardless of thread count
//! or scheduling. Grid-search CV, per-class GBT tree growth, and the
//! experiment table sweeps all run their independent cells through this
//! executor.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A cell of [`Executor::try_map`] that panicked instead of producing a
/// value. The panic is contained inside the worker (the scope joins
/// cleanly, no lock is poisoned, every other cell still completes) and
/// surfaced as a per-slot error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellPanic {
    /// Index of the cell whose job panicked.
    pub index: usize,
    /// The panic payload, if it was a string (the common case).
    pub message: String,
}

impl std::fmt::Display for CellPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for CellPanic {}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A thread budget plus the machinery to spend it on independent cells.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// Executor running up to `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Executor {
        Executor {
            threads: threads.max(1),
        }
    }

    /// Single-threaded executor: `map` degenerates to a plain loop.
    pub fn serial() -> Executor {
        Executor { threads: 1 }
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluate `job(i)` for `i in 0..n` and return the results in index
    /// order. `job` must be a pure function of its index for the output
    /// to be schedule-independent.
    ///
    /// A panicking cell no longer tears down the pool or poisons any lock:
    /// every other cell still completes, the scope joins cleanly, and the
    /// panic is re-raised (deterministically, lowest failing index first)
    /// only after the full sweep finished. Callers that want per-slot
    /// errors instead use [`Executor::try_map`].
    pub fn map<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = Vec::with_capacity(n);
        for (i, r) in self.try_map(n, job).into_iter().enumerate() {
            match r {
                Ok(v) => out.push(v),
                Err(p) => panic!("executor cell {i} panicked: {}", p.message),
            }
        }
        out
    }

    /// Like [`Executor::map`], but each cell's panic is contained via
    /// `catch_unwind` inside the worker and returned as a per-slot
    /// `Err(CellPanic)`. The scope always joins cleanly and no mutex is
    /// left poisoned, so one bad cell cannot take down a sweep.
    pub fn try_map<T, F>(&self, n: usize, job: F) -> Vec<Result<T, CellPanic>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.try_map_with(n, || (), |(), i| job(i))
    }

    /// [`Executor::try_map`] with per-worker scratch state: `init` builds
    /// one `S` per worker and `job(&mut scratch, i)` reuses it across every
    /// cell that worker claims. This is the allocation-amortization hook —
    /// label collection keeps format-structure buffers in the scratch, so
    /// the steady state allocates ~nothing per matrix.
    ///
    /// Determinism contract: `job`'s *result* must be a pure function of
    /// its index — the scratch may carry capacity between cells but never
    /// values that change an output. After a contained panic the worker's
    /// scratch is rebuilt with `init`, so a half-written buffer from the
    /// panicking cell cannot leak into the next one.
    pub fn try_map_with<S, T, I, F>(&self, n: usize, init: I, job: F) -> Vec<Result<T, CellPanic>>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let run_cell = |scratch: &mut S, i: usize| -> Result<T, CellPanic> {
            catch_unwind(AssertUnwindSafe(|| job(scratch, i))).map_err(|payload| CellPanic {
                index: i,
                message: panic_message(payload),
            })
        };
        if self.threads == 1 || n <= 1 {
            let mut scratch = init();
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let r = run_cell(&mut scratch, i);
                if r.is_err() {
                    scratch = init();
                }
                out.push(r);
            }
            return out;
        }
        let slots: Vec<Mutex<Option<Result<T, CellPanic>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(n);
        // `std::thread::scope` re-raises a worker's panic, but every worker
        // body catches its own (`run_cell`), so the scope always joins
        // cleanly with every slot filled.
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = run_cell(&mut scratch, i);
                        if out.is_err() {
                            scratch = init();
                        }
                        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .unwrap_or(Err(CellPanic {
                        index: i,
                        message: "worker terminated before producing this cell".to_string(),
                    }))
            })
            .collect()
    }
}

impl Default for Executor {
    /// Defaults to the resolved thread budget (env var or all cores).
    fn default() -> Executor {
        Executor::new(thread_budget(None))
    }
}

/// Resolve a thread budget: an explicit request (e.g. a `--threads` flag)
/// wins, else the `SPMV_THREADS` environment variable, else all available
/// cores. Never returns 0.
pub fn thread_budget(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(s) = std::env::var("SPMV_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order_at_any_thread_count() {
        let squares: Vec<usize> = (0..33).map(|i| i * i).collect();
        for threads in [1, 2, 4, 7] {
            let exec = Executor::new(threads);
            assert_eq!(exec.map(33, |i| i * i), squares, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single_cell() {
        let exec = Executor::new(4);
        assert_eq!(exec.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(exec.map(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(thread_budget(Some(0)), 1);
    }

    #[test]
    fn explicit_budget_wins() {
        assert_eq!(thread_budget(Some(3)), 3);
        assert!(thread_budget(None) >= 1);
    }

    #[test]
    fn try_map_contains_cell_panics_at_any_thread_count() {
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            let out = exec.try_map(12, |i| {
                if i % 3 == 0 {
                    panic!("boom {i}");
                }
                i * 2
            });
            assert_eq!(out.len(), 12, "threads = {threads}");
            for (i, r) in out.iter().enumerate() {
                if i % 3 == 0 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, i);
                    assert_eq!(p.message, format!("boom {i}"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2);
                }
            }
        }
    }

    #[test]
    fn try_map_survives_a_panicking_cell_and_keeps_working() {
        // The executor must stay usable after containing a panic: no
        // poisoned state leaks across calls.
        let exec = Executor::new(3);
        let first = exec.try_map(5, |i| {
            if i == 2 {
                panic!("one bad cell");
            }
            i
        });
        assert!(first[2].is_err());
        assert_eq!(first.iter().filter(|r| r.is_ok()).count(), 4);
        let second = exec.try_map(5, |i| i + 1);
        assert!(second.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn try_map_with_reuses_scratch_and_stays_deterministic() {
        use std::sync::atomic::AtomicUsize;
        // Scratch is a growable buffer; results must not depend on what a
        // previous cell left in it, and the number of `init` calls is
        // bounded by the worker count (that's the whole point).
        let inits = AtomicUsize::new(0);
        for threads in [1usize, 4] {
            inits.store(0, Ordering::Relaxed);
            let exec = Executor::new(threads);
            let out = exec.try_map_with(
                40,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |buf, i| {
                    buf.clear();
                    buf.extend(0..=i);
                    buf.iter().sum::<usize>()
                },
            );
            let expect: Vec<usize> = (0..40).map(|i| i * (i + 1) / 2).collect();
            let got: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, expect, "threads = {threads}");
            assert!(
                inits.load(Ordering::Relaxed) <= threads,
                "one scratch per worker, not per cell"
            );
        }
    }

    #[test]
    fn try_map_with_rebuilds_scratch_after_a_contained_panic() {
        let exec = Executor::new(1);
        // Cell 3 poisons its scratch then panics; cell 4 must see a fresh
        // scratch, not the poisoned one.
        let out = exec.try_map_with(
            6,
            || 0usize,
            |state, i| {
                if i == 3 {
                    *state = 999;
                    panic!("poisoned");
                }
                *state
            },
        );
        assert!(out[3].is_err());
        assert_eq!(*out[4].as_ref().unwrap(), 0, "scratch was rebuilt");
    }

    #[test]
    fn map_reraises_contained_panics_after_the_sweep() {
        let exec = Executor::new(2);
        let caught = std::panic::catch_unwind(|| {
            exec.map(6, |i| {
                if i == 1 {
                    panic!("late repanic");
                }
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn workers_share_the_counter_not_the_cells() {
        // Uneven per-cell cost: make sure every slot still lands in place.
        let exec = Executor::new(4);
        let out = exec.map(20, |i| {
            if i % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }
}
