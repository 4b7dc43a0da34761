//! A scoped thread pool with deterministic ordered collection.
//!
//! A batch is `tasks` indices and one task function. Every worker runs
//! the same loop: check the stop condition, claim the next index from
//! one shared counter, run the task and write its result into that
//! index's slot. Results therefore come back in input order no matter
//! which worker ran what — the property the parallel/serial equivalence
//! tests lock down. At one worker the loop runs on the caller's thread
//! with no spawn, so the serial reference path is the same code.
//!
//! One stop condition is checked before every claim. A batch stops when
//! a task panics, when a task returns [`ControlFlow::Break`], or when a
//! drain is requested ([`crate::shutdown::drain_requested`]). In-flight
//! tasks finish and keep their results; unclaimed tasks never start and
//! their slots stay `None`, so a caller can salvage and journal what
//! finished.
//!
//! Panics inside a task are contained per task: the first failing task's
//! index and message are captured, the batch stops, and the call
//! re-panics with `pool task <index> panicked: <message>` instead of a
//! generic scope-join payload that hides which leg failed. Slots are
//! locked poison-recovering (`PoisonError::into_inner`), so a contained
//! panic never cascades into a second "poisoned" panic in another worker.

use crate::shutdown::drain_requested;
use cap_obs::{Event, PoolBatchEvent, Recorder};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A fixed-width thread pool. `jobs == 1` runs everything inline on the
/// caller's thread (the serial reference path — same loop, no spawns).
#[derive(Debug, Clone)]
pub struct Pool {
    jobs: usize,
    recorder: Arc<dyn Recorder>,
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

impl Pool {
    /// A pool of `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Pool {
            jobs: jobs.max(1),
            recorder: cap_obs::noop(),
        }
    }

    /// Attach a trace recorder; each batch then emits one
    /// [`cap_obs::PoolBatchEvent`] with per-worker execution counters.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs `task(0) .. task(tasks - 1)` across the pool's workers and
    /// returns their results **in input order**.
    ///
    /// `task` must be a pure function of its index for parallel runs to
    /// equal serial runs (every caller in this workspace runs seeded,
    /// self-contained simulation legs). A task returns
    /// [`ControlFlow::Continue`] to let the batch go on, or
    /// [`ControlFlow::Break`] to keep its result and stop the batch.
    /// Slot `i` is `None` exactly when task `i` never started: the batch
    /// stopped on a `Break` or on a drain request first.
    ///
    /// # Panics
    ///
    /// If a task panics, the batch stops and the call re-panics with
    /// `pool task <index> panicked: <message>` naming the first failing
    /// task (in completion order).
    pub fn run<T, F>(&self, tasks: usize, task: F) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(usize) -> ControlFlow<T, T> + Sync,
    {
        let workers = self.jobs.min(tasks).max(1);
        let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        // `Relaxed` suffices: the counter and the flag publish no data.
        // Results travel through the slots' locks and are read after
        // every worker has joined.
        let next = AtomicUsize::new(0);
        let halt = AtomicBool::new(false);
        let failure: OnceLock<(usize, String)> = OnceLock::new();

        // One worker's loop; returns how many tasks it ran to completion.
        let worker = || {
            let mut executed = 0u64;
            while !halt.load(Ordering::Relaxed) && !drain_requested() {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= tasks {
                    break;
                }
                let (result, go_on) = match catch_unwind(AssertUnwindSafe(|| task(index))) {
                    Ok(ControlFlow::Continue(result)) => (result, true),
                    Ok(ControlFlow::Break(result)) => (result, false),
                    Err(payload) => {
                        let _ = failure.set((index, panic_message(payload.as_ref())));
                        halt.store(true, Ordering::Relaxed);
                        break;
                    }
                };
                *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                executed += 1;
                if !go_on {
                    halt.store(true, Ordering::Relaxed);
                }
            }
            executed
        };
        let executed: Vec<u64> = if workers == 1 {
            vec![worker()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a pool worker's own loop never panics"))
                    .collect()
            })
        };

        if let Some((index, message)) = failure.into_inner() {
            panic!("pool task {index} panicked: {message}");
        }
        if self.recorder.enabled() {
            self.recorder.record(&Event::PoolBatch(PoolBatchEvent {
                jobs: workers,
                tasks: tasks as u64,
                executed,
            }));
        }
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }
}

/// A counting semaphore bounding concurrent leg computation across
/// *independent* pools.
///
/// [`Pool`] workers are batch-scoped: each campaign's executor spins up
/// its own scoped threads. When the campaign service runs several
/// campaigns at once, handing every executor the same `Gate` caps the
/// total number of legs computing simultaneously at the server's
/// `--jobs`, so N concurrent campaigns still present one worker budget
/// to the machine. Followers waiting on a single-flight slot never hold
/// a permit — only code actually computing a leg does — so the gate
/// cannot deadlock against [`crate::singleflight::SingleFlight`].
#[derive(Debug)]
pub struct Gate {
    permits: Mutex<usize>,
    freed: std::sync::Condvar,
}

impl Gate {
    /// A gate with `permits` concurrent slots (clamped to at least 1).
    #[must_use]
    pub fn new(permits: usize) -> Self {
        Gate {
            permits: Mutex::new(permits.max(1)),
            freed: std::sync::Condvar::new(),
        }
    }

    /// Blocks until a slot is free and claims it; the permit returns
    /// its slot when dropped. The permit owns a handle to the gate, so
    /// it can move to another thread and outlive the caller — a leg
    /// abandoned at its deadline keeps its slot until it really ends.
    pub fn acquire(self: &Arc<Self>) -> GatePermit {
        let mut free = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        while *free == 0 {
            free = self.freed.wait(free).unwrap_or_else(PoisonError::into_inner);
        }
        *free -= 1;
        GatePermit { gate: Arc::clone(self) }
    }
}

/// An RAII slot claimed from a [`Gate`]; dropping it frees the slot.
#[derive(Debug)]
pub struct GatePermit {
    gate: Arc<Gate>,
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        let mut free = self
            .gate
            .permits
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *free += 1;
        drop(free);
        self.gate.freed.notify_one();
    }
}

/// Reads the `CAP_JOBS` environment variable.
///
/// Unset means "no opinion" (`Ok(None)`). A set value must be a positive
/// integer; anything else — `abc`, `0`, `-3` — is a hard error instead of
/// being silently ignored, so a typo cannot quietly change how a sweep runs.
///
/// # Errors
/// Returns a human-readable message naming the variable and the rejected
/// value.
fn jobs_from_env() -> Result<Option<usize>, String> {
    let Some(raw) = std::env::var_os("CAP_JOBS") else {
        return Ok(None);
    };
    let text = raw.to_string_lossy();
    match text.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "CAP_JOBS must be a positive integer, got `{text}`"
        )),
    }
}

/// Resolves a worker count: an explicit request (CLI `--jobs`) wins,
/// then the `CAP_JOBS` environment variable, then the machine's
/// available parallelism.
///
/// # Errors
/// Returns a message naming `CAP_JOBS` and the rejected value when the
/// variable is set to anything but a positive integer.
pub fn effective_jobs(requested: Option<usize>) -> Result<usize, String> {
    if let Some(n) = requested {
        return Ok(n.max(1));
    }
    Ok(jobs_from_env()?
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
        .max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cap_obs::RingRecorder;
    use std::ops::ControlFlow::{Break, Continue};

    /// Runs a batch whose tasks never stop it and unwraps every slot.
    fn map_all<T: Send>(jobs: usize, tasks: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let out = Pool::new(jobs).run(tasks, |i| Continue(f(i)));
        out.into_iter().map(|slot| slot.expect("an unstopped batch runs every task")).collect()
    }

    fn batch_event(ring: &RingRecorder) -> PoolBatchEvent {
        let events = ring.events();
        assert_eq!(events.len(), 1, "one pool-batch event per batch");
        match &events[0] {
            Event::PoolBatch(b) => b.clone(),
            other => panic!("expected a pool-batch event, got {other:?}"),
        }
    }

    #[test]
    fn results_come_back_in_input_order() {
        for jobs in [1, 2, 3, 8, 33] {
            let out = map_all(jobs, 100, |i| (i as u64) * (i as u64));
            assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let work = |i: usize| -> u64 {
            // A little CPU burn so workers genuinely interleave.
            (0..1000).fold(i as u64, |acc, k| acc.wrapping_mul(6364136223846793005).wrapping_add(k))
        };
        assert_eq!(map_all(1, 64, work), map_all(8, 64, work));
    }

    #[test]
    fn handles_empty_and_single_batches() {
        assert!(map_all(4, 0, |i| i).is_empty());
        assert_eq!(map_all(4, 1, |i| i + 8), vec![8]);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        assert_eq!(map_all(64, 3, |i| (i + 1) * 10), vec![10, 20, 30]);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        let ring = Arc::new(RingRecorder::new());
        Pool::new(0).with_recorder(ring.clone()).run(5, Continue);
        assert_eq!(batch_event(&ring).jobs, 1);
    }

    #[test]
    fn a_one_worker_batch_runs_every_task_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let threads = map_all(1, 16, |_| std::thread::current().id());
        assert!(threads.iter().all(|&t| t == caller), "a one-worker batch spawned a thread");
    }

    #[test]
    fn a_task_that_returns_stop_starts_no_later_task() {
        const STOPPER: usize = 3;
        for jobs in [1, 4] {
            let started: Vec<AtomicBool> = (0..32).map(|_| AtomicBool::new(false)).collect();
            // At 4 workers the barrier makes each worker claim one of the
            // first four tasks. The stop is set inside the pool, where no
            // task can wait on it, so the other three outlast the stopper
            // by a sleep: every later claim then comes after the stop.
            let first_wave = std::sync::Barrier::new(jobs);
            let ring = Arc::new(RingRecorder::new());
            let pool = Pool::new(jobs).with_recorder(ring.clone());
            let out = pool.run(started.len(), |i| {
                started[i].store(true, Ordering::SeqCst);
                if jobs > 1 && i <= STOPPER {
                    first_wave.wait();
                }
                if i == STOPPER {
                    return Break(i * 10);
                }
                if jobs > 1 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                Continue(i * 10)
            });
            let expected: Vec<Option<usize>> =
                (0..32).map(|i| (i <= STOPPER).then_some(i * 10)).collect();
            assert_eq!(out, expected, "jobs={jobs}: finished results are kept, later tasks never run");
            for (i, flag) in started.iter().enumerate() {
                assert_eq!(flag.load(Ordering::SeqCst), i <= STOPPER, "jobs={jobs} task {i}");
            }
            let event = batch_event(&ring);
            assert_eq!(event.executed.len(), jobs);
            assert_eq!(event.executed.iter().sum::<u64>(), STOPPER as u64 + 1, "jobs={jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "pool task 3 panicked: leg 3 exploded")]
    fn worker_panic_names_the_failing_task() {
        map_all(4, 8, |i| {
            assert!(i != 3, "leg 3 exploded");
            i
        });
    }

    #[test]
    #[should_panic(expected = "pool task 2 panicked: leg 2 exploded")]
    fn serial_panic_names_the_failing_task_too() {
        map_all(1, 4, |i| {
            assert!(i != 2, "leg 2 exploded");
            i
        });
    }

    #[test]
    fn panic_stops_dispatch_cleanly() {
        // The panic must not cascade into "poisoned" or "every submitted
        // task completes" — the reported failure is the real one,
        // whichever task hits it first on this schedule.
        let err = std::panic::catch_unwind(|| {
            map_all(2, 100, |i| {
                assert!(i % 7 != 3, "leg {i} exploded");
                i
            });
        })
        .expect_err("a leg must fail");
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("panicked: leg"), "unexpected message: {msg}");
        assert!(!msg.contains("poisoned"), "poisoning leaked: {msg}");
    }

    #[test]
    fn batches_emit_pool_counters_when_traced() {
        let ring = Arc::new(RingRecorder::new());
        let out = Pool::new(3).with_recorder(ring.clone()).run(20, |i| Continue(i + 1));
        assert_eq!(out.iter().flatten().count(), 20);
        let event = batch_event(&ring);
        assert_eq!((event.jobs, event.tasks), (3, 20));
        assert_eq!(event.executed.len(), event.jobs);
        assert_eq!(event.executed.iter().sum::<u64>(), 20);
    }

    #[test]
    fn effective_jobs_prefers_explicit_request() {
        assert_eq!(effective_jobs(Some(3)), Ok(3));
        assert_eq!(effective_jobs(Some(0)), Ok(1));
    }

    #[test]
    fn gate_bounds_concurrency() {
        use std::sync::atomic::AtomicUsize;
        let gate = Arc::new(Gate::new(2));
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _permit = gate.acquire();
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    live.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "gate leaked permits");
        // All permits returned: two immediate acquires must not block.
        let a = gate.acquire();
        let b = gate.acquire();
        drop((a, b));
    }

    #[test]
    fn gate_clamps_zero_to_one() {
        let gate = Arc::new(Gate::new(0));
        drop(gate.acquire());
    }

    // One test mutates CAP_JOBS for the whole process, so every scenario
    // lives in this single #[test] to avoid races with its siblings.
    #[test]
    fn cap_jobs_env_is_validated_strictly() {
        std::env::set_var("CAP_JOBS", "5");
        assert_eq!(jobs_from_env(), Ok(Some(5)));
        assert_eq!(effective_jobs(None), Ok(5));
        // An explicit request still wins over the environment.
        assert_eq!(effective_jobs(Some(2)), Ok(2));
        for bad in ["abc", "0", "-3", "1.5", ""] {
            std::env::set_var("CAP_JOBS", bad);
            let err = jobs_from_env().expect_err(bad);
            assert!(err.contains("CAP_JOBS"), "{err}");
            assert!(err.contains(bad) || bad.is_empty(), "{err}");
            assert!(effective_jobs(None).is_err(), "CAP_JOBS={bad}");
        }
        std::env::remove_var("CAP_JOBS");
        assert_eq!(jobs_from_env(), Ok(None));
        assert!(effective_jobs(None).expect("falls back") >= 1);
    }
}
