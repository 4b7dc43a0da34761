//! A drain request stops every pool batch at its next claim.
//!
//! The drain flag is process-wide and every batch honours it, so this
//! test lives in a binary of its own: no other test's batch can see the
//! flag it raises.

use cap_par::{request_drain, reset_drain, Pool};
use std::ops::ControlFlow::Continue;
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn drain_stops_dispatch_and_keeps_the_finished_tasks() {
    reset_drain();
    // Drained before the batch: nothing runs.
    request_drain();
    assert_eq!(Pool::new(1).run(3, Continue), vec![None, None, None]);
    reset_drain();

    // No drain: every task runs, serial and parallel.
    for jobs in [1, 4] {
        let out = Pool::new(jobs).run(10, |i| Continue(i * 2));
        assert_eq!(out, (0..10).map(|i| Some(i * 2)).collect::<Vec<_>>(), "jobs={jobs}");
    }

    // Serial: a task trips the drain; it finishes and nothing after it starts.
    let out = Pool::new(1).run(8, |i| {
        if i == 5 {
            request_drain();
        }
        Continue(i)
    });
    assert_eq!(out, (0..8).map(|i| (i <= 5).then_some(i)).collect::<Vec<_>>());
    reset_drain();

    // Parallel: a task trips the drain mid-batch; the batch ends early,
    // with no hang, and keeps exactly the tasks that finished.
    let started: Vec<AtomicBool> = (0..64).map(|_| AtomicBool::new(false)).collect();
    let out = Pool::new(2).run(64, |i| {
        started[i].store(true, Ordering::SeqCst);
        if i == 5 {
            request_drain();
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        Continue(i)
    });
    let completed = out.iter().flatten().count();
    assert!(completed >= 6, "tasks up to the tripping one were claimed and finish");
    assert!(completed < 64, "drain must stop dispatch early");
    for (i, slot) in out.iter().enumerate() {
        let ran = started[i].load(Ordering::SeqCst);
        assert_eq!(slot.is_some(), ran, "task {i}");
    }
    reset_drain();
}
