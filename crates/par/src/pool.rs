//! A work-stealing thread pool with deterministic ordered collection.
//!
//! The design is the classic per-worker-deque scheme scaled down to what
//! the sweep engine needs: tasks are known up front, so there is no
//! injector churn — items are dealt round-robin into per-worker deques,
//! each worker pops from the *front* of its own deque and, when empty,
//! steals from the *back* of a sibling's. Every task carries its
//! submission index and writes its result into a dedicated slot, so
//! [`Pool::ordered_map`] returns results in input order no matter which
//! worker ran what — the property the parallel/serial equivalence tests
//! lock down.
//!
//! Panics inside a task are contained per task: the first failing task's
//! index and message are captured, dispatch stops cleanly, and the batch
//! re-panics with `pool task <index> panicked: <message>` instead of a
//! generic scope-join payload that hides which leg failed. Every lock is
//! taken poison-recovering (`PoisonError::into_inner`), so a contained
//! panic can never cascade into a second "poisoned" panic in another
//! worker — the data under the lock is a plain slot or deque that is
//! valid at every instruction boundary.
//!
//! [`Pool::ordered_map_drain`] is the graceful-shutdown variant: it
//! checks the process-wide [`crate::shutdown::drain_requested`] flag at
//! every dispatch point and, once a drain is requested, stops pulling
//! new tasks and returns the completed prefix as
//! [`BatchResult::Drained`] so the caller can salvage and journal it.

use crate::shutdown::drain_requested;
use cap_obs::{Event, PoolBatchEvent, Recorder};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A fixed-width thread pool. `jobs == 1` runs everything inline on the
/// caller's thread (the serial reference path — same code, no spawns).
#[derive(Debug, Clone)]
pub struct Pool {
    jobs: usize,
    recorder: Arc<dyn Recorder>,
}

/// What a drain-aware batch produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchResult<T> {
    /// Every task ran; results are in input order.
    Complete(Vec<T>),
    /// A drain was requested mid-batch: `partial[i]` holds task `i`'s
    /// result if it finished before dispatch stopped.
    Drained {
        /// Per-task results, input-indexed, `None` for undispatched tasks.
        partial: Vec<Option<T>>,
        /// How many tasks completed.
        completed: usize,
    },
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

    /// Attach a trace recorder; each `ordered_map` batch then emits one
    /// [`cap_obs::PoolBatchEvent`] with per-worker execution and steal
    /// counters.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Applies `f` to every item, in parallel across the pool's workers,
    /// and returns the results **in input order**.
    ///
    /// `f` receives `(index, item)` and must be a pure function of them
    /// for parallel runs to equal serial runs (every caller in this
    /// workspace passes seeded, self-contained simulation legs).
    ///
    /// # Panics
    ///
    /// If a task panics, dispatch stops and the call re-panics with
    /// `pool task <index> panicked: <message>` naming the first failing
    /// task (in completion order).
    pub fn ordered_map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        match self.run_batch(items, f, false) {
            BatchResult::Complete(out) => out,
            BatchResult::Drained { .. } => unreachable!("non-drain batches always complete"),
        }
    }

    /// Like [`Pool::ordered_map`], but honours the process-wide drain
    /// flag: once [`crate::shutdown::request_drain`] has been called,
    /// in-flight tasks finish, nothing new is dispatched, and the
    /// completed prefix comes back as [`BatchResult::Drained`].
    ///
    /// # Panics
    /// Same contract as [`Pool::ordered_map`] for task panics.
    pub fn ordered_map_drain<I, T, F>(&self, items: Vec<I>, f: F) -> BatchResult<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        self.run_batch(items, f, true)
    }

    fn run_batch<I, T, F>(&self, items: Vec<I>, f: F, drain_aware: bool) -> BatchResult<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            let mut out: Vec<Option<T>> = Vec::with_capacity(n);
            for (i, item) in items.into_iter().enumerate() {
                if drain_aware && drain_requested() {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                    Ok(v) => out.push(Some(v)),
                    Err(payload) => {
                        panic!("pool task {i} panicked: {}", panic_message(payload.as_ref()))
                    }
                }
            }
            let completed = out.len();
            if self.recorder.enabled() {
                self.recorder.record(&Event::PoolBatch(PoolBatchEvent {
                    jobs: 1,
                    tasks: n as u64,
                    executed: vec![completed as u64],
                    steals: 0,
                }));
            }
            if completed < n {
                out.resize_with(n, || None);
                return BatchResult::Drained { partial: out, completed };
            }
            return BatchResult::Complete(out.into_iter().flatten().collect());
        }

        // Deal tasks round-robin into per-worker deques.
        let mut queues: Vec<VecDeque<(usize, I)>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            queues[i % workers].push_back((i, item));
        }
        let queues: Vec<Mutex<VecDeque<(usize, I)>>> = queues.into_iter().map(Mutex::new).collect();
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let executed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let steals = AtomicU64::new(0);
        let abort = AtomicBool::new(false);
        let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);

        std::thread::scope(|scope| {
            for me in 0..workers {
                let queues = &queues;
                let slots = &slots;
                let executed = &executed;
                let steals = &steals;
                let abort = &abort;
                let failure = &failure;
                let f = &f;
                scope.spawn(move || loop {
                    // A failed sibling means the batch result is already
                    // forfeit — and a requested drain means no new work
                    // may start. Either way, stop pulling tasks.
                    if abort.load(Ordering::Relaxed) || (drain_aware && drain_requested()) {
                        return;
                    }
                    // Own work first (front of own deque)...
                    let task = queues[me]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .pop_front();
                    let (index, item) = match task {
                        Some(t) => t,
                        // ...then steal from the back of a sibling's.
                        None => {
                            let stolen = (1..workers).find_map(|d| {
                                queues[(me + d) % workers]
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .pop_back()
                            });
                            match stolen {
                                Some(t) => {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    t
                                }
                                None => return,
                            }
                        }
                    };
                    match catch_unwind(AssertUnwindSafe(|| f(index, item))) {
                        Ok(result) => {
                            *slots[index].lock().unwrap_or_else(PoisonError::into_inner) =
                                Some(result);
                            executed[me].fetch_add(1, Ordering::Relaxed);
                        }
                        Err(payload) => {
                            let mut first =
                                failure.lock().unwrap_or_else(PoisonError::into_inner);
                            if first.is_none() {
                                *first = Some((index, panic_message(payload.as_ref())));
                            }
                            drop(first);
                            abort.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                });
            }
        });

        if let Some((index, message)) =
            failure.into_inner().unwrap_or_else(PoisonError::into_inner)
        {
            panic!("pool task {index} panicked: {message}");
        }

        if self.recorder.enabled() {
            self.recorder.record(&Event::PoolBatch(PoolBatchEvent {
                jobs: workers,
                tasks: n as u64,
                executed: executed.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                steals: steals.load(Ordering::Relaxed),
            }));
        }

        let partial: Vec<Option<T>> = slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let completed = partial.iter().filter(|s| s.is_some()).count();
        if completed < n {
            debug_assert!(drain_aware, "only a drain may leave tasks unrun");
            return BatchResult::Drained { partial, completed };
        }
        BatchResult::Complete(partial.into_iter().flatten().collect())
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
pub fn jobs_from_env() -> Result<Option<usize>, String> {
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
/// Propagates the [`jobs_from_env`] error for an invalid `CAP_JOBS`.
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
    use crate::shutdown::{request_drain, reset_drain};
    use cap_obs::RingRecorder;

    #[test]
    fn ordered_map_preserves_input_order() {
        for jobs in [1, 2, 3, 8, 33] {
            let out = Pool::new(jobs).ordered_map((0..100u64).collect(), |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let work = |i: usize, x: u64| -> u64 {
            // A little CPU burn so workers genuinely interleave.
            (0..1000).fold(x, |acc, k| acc.wrapping_mul(6364136223846793005).wrapping_add(k + i as u64))
        };
        let serial = Pool::new(1).ordered_map((0..64u64).collect(), work);
        let parallel = Pool::new(8).ordered_map((0..64u64).collect(), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        let empty: Vec<u64> = Pool::new(4).ordered_map(Vec::<u64>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(Pool::new(4).ordered_map(vec![7u64], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = Pool::new(64).ordered_map(vec![1u64, 2, 3], |_, x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
    }

    #[test]
    #[should_panic(expected = "pool task 3 panicked: leg 3 exploded")]
    fn worker_panic_names_the_failing_task() {
        Pool::new(4).ordered_map((0..8usize).collect(), |_, x| {
            assert!(x != 3, "leg 3 exploded");
            x
        });
    }

    #[test]
    #[should_panic(expected = "pool task 2 panicked: leg 2 exploded")]
    fn serial_panic_names_the_failing_task_too() {
        Pool::new(1).ordered_map((0..4usize).collect(), |_, x| {
            assert!(x != 2, "leg 2 exploded");
            x
        });
    }

    #[test]
    fn panic_stops_dispatch_cleanly() {
        // The panic must not cascade into "pool queue poisoned" or
        // "every submitted task completes" — the reported failure is the
        // real one, whichever task hits it first on this schedule.
        let err = std::panic::catch_unwind(|| {
            Pool::new(2).ordered_map((0..100usize).collect(), |_, x| {
                assert!(x % 7 != 3, "leg {x} exploded");
                x
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
        let pool = Pool::new(3).with_recorder(ring.clone());
        let out = pool.ordered_map((0..20u64).collect(), |_, x| x + 1);
        assert_eq!(out.len(), 20);
        let events = ring.events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::PoolBatch(b) => {
                assert_eq!(b.tasks, 20);
                assert_eq!(b.executed.len(), b.jobs);
                assert_eq!(b.executed.iter().sum::<u64>(), 20);
            }
            other => panic!("expected a pool-batch event, got {other:?}"),
        }
    }

    #[test]
    fn effective_jobs_prefers_explicit_request() {
        assert_eq!(effective_jobs(Some(3)), Ok(3));
        assert_eq!(effective_jobs(Some(0)), Ok(1));
    }

    // The sole test driving the process-global drain flag in this
    // process; `ordered_map` (used by every other test) ignores it.
    #[test]
    fn drain_stops_dispatch_and_returns_the_completed_prefix() {
        reset_drain();
        // Serial: drain before the batch → nothing runs.
        request_drain();
        match Pool::new(1).ordered_map_drain(vec![1u64, 2, 3], |_, x| x) {
            BatchResult::Drained { partial, completed } => {
                assert_eq!(completed, 0);
                assert_eq!(partial, vec![None, None, None]);
            }
            BatchResult::Complete(_) => panic!("a pre-drained batch must not complete"),
        }
        reset_drain();
        // No drain → identical to ordered_map, parallel and serial.
        for jobs in [1, 4] {
            match Pool::new(jobs).ordered_map_drain((0..10u64).collect(), |_, x| x * 2) {
                BatchResult::Complete(out) => {
                    assert_eq!(out, (0..10u64).map(|x| x * 2).collect::<Vec<_>>())
                }
                BatchResult::Drained { .. } => panic!("undrained batch must complete"),
            }
        }
        // Parallel: a task trips the drain mid-batch; the batch ends with
        // a completed prefix and no hang.
        match Pool::new(2).ordered_map_drain((0..64u64).collect(), |i, x| {
            if i == 5 {
                request_drain();
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        }) {
            BatchResult::Drained { partial, completed } => {
                assert!(completed >= 1, "the tripping task itself completes");
                assert!(completed < 64, "drain must stop dispatch early");
                assert_eq!(partial.iter().flatten().count(), completed);
            }
            BatchResult::Complete(_) => panic!("a mid-batch drain must not complete"),
        }
        reset_drain();
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
