//! Exhaustive model checks of the pool's synchronization protocols, run on
//! the in-repo loom explorer (`cargo test -p fastbcc-rayon --features
//! model`). These drive the *actual* pool components — [`Deque`],
//! [`Region`], [`Job`] — compiled against the model's atomics via
//! [`crate::sync`], so every interleaving within the preemption bound is
//! executed for real and every `Ordering` feeds the explorer's
//! happens-before tracking.
//!
//! Each scenario is sized so the bounded exploration both *finishes*
//! (`report.complete`) and covers a non-trivial schedule space; the core
//! protocol tests assert >1,000 distinct interleavings each.

use super::*;
use loom::sync::atomic::AtomicUsize as ModelUsize;
use loom::Builder;

fn task(lo: u32) -> Task {
    Task {
        job: std::ptr::null(),
        lo,
        hi: lo + 1,
    }
}

/// Claim task `lo` in a shared bitmask, panicking (= model failure) if it
/// was already claimed by someone else — the exactly-once oracle.
fn claim(mask: &ModelUsize, lo: u32) {
    let prev = mask.fetch_or(1 << lo, std::sync::atomic::Ordering::SeqCst);
    assert_eq!(prev & (1 << lo), 0, "task {lo} claimed twice");
}

/// Chase–Lev core: the owner pops LIFO while two thieves steal FIFO.
/// Every task must be claimed exactly once in every interleaving — the
/// owner-pop vs. thief-steal race on the last element is settled by the
/// SeqCst `top` CAS, and the owner's SeqCst fence in `pop` keeps it from
/// missing a concurrent steal.
#[test]
fn model_deque_owner_pop_vs_two_thieves() {
    let report = Builder::default().check(|| {
        let deque = Arc::new(Deque::new());
        for i in 0..2 {
            deque.push(task(i)).unwrap();
        }
        let mask = Arc::new(ModelUsize::new(0));
        let thieves: Vec<_> = (0..2)
            .map(|_| {
                let (d, m) = (Arc::clone(&deque), Arc::clone(&mask));
                loom::thread::spawn(move || {
                    if let Some(t) = d.steal() {
                        claim(&m, t.lo);
                    }
                })
            })
            .collect();
        while let Some(t) = deque.pop() {
            claim(&mask, t.lo);
        }
        for th in thieves {
            th.join().unwrap();
        }
        assert_eq!(
            mask.load(std::sync::atomic::Ordering::SeqCst),
            0b11,
            "a task was lost"
        );
    });
    assert!(
        report.failure.is_none(),
        "deque protocol failed: {}",
        report.failure.unwrap()
    );
    assert!(report.complete, "deque exploration did not finish");
    assert!(
        report.iterations > 1000,
        "only {} interleavings explored",
        report.iterations
    );
}

/// The pool's park/wake handshake (worker_loop / execute_range), as a
/// self-contained miniature over a real [`Deque`]:
///
/// * parker — under the pool lock, raise `PARKED` (SeqCst), scan the
///   deque, and `wait` only if it was empty;
/// * pusher — `push` (whose `bottom` store is SeqCst), load `PARKED`
///   (SeqCst), and if a parker is visible, **serialize on the pool lock**
///   before notifying.
///
/// `serialize_on_lock = true` is the shipped protocol: the explorer must
/// prove the wakeup can never be lost. `false` seeds the classic bug —
/// the notify can fire in the parker's scan-to-`wait` window.
fn park_handshake(serialize_on_lock: bool) -> impl Fn() + Send + Sync + 'static {
    move || {
        let deque = Arc::new(Deque::new());
        let parked = Arc::new(AtomicUsize::new(0));
        let lock = Arc::new(Mutex::new(()));
        let cv = Arc::new(Condvar::new());
        let (d2, p2, l2, c2) = (
            Arc::clone(&deque),
            Arc::clone(&parked),
            Arc::clone(&lock),
            Arc::clone(&cv),
        );
        let parker = loom::thread::spawn(move || {
            let st = l2.lock().unwrap();
            // Dekker: raise PARKED (SeqCst) before scanning; pairs with
            // the pusher's SeqCst `bottom` store → PARKED load.
            p2.fetch_add(1, Ordering::SeqCst);
            if d2.is_empty() {
                let _st = c2.wait(st).unwrap();
            } else {
                drop(st);
            }
            p2.fetch_sub(1, Ordering::SeqCst);
            // Woken or never parked: the pushed task must be visible now.
            assert!(d2.steal().is_some(), "woke to an empty deque");
        });
        deque.push(task(0)).unwrap();
        // Pairs with the parker's SeqCst PARKED raise (see above).
        if parked.load(Ordering::SeqCst) > 0 {
            if serialize_on_lock {
                // Close the scan-to-wait window: the parker holds the
                // lock from before its PARKED raise until `wait`, so
                // taking it here orders us after that wait begins.
                drop(lock.lock().unwrap());
            }
            cv.notify_one();
        }
        parker.join().unwrap();
    }
}

#[test]
fn model_push_park_handshake_never_loses_wakeup() {
    // Bound 5 (vs. the default 2): the two-thread scenario is small, so
    // the deeper bound still completes fast while pushing the explored
    // space well past the 1,000-interleaving bar.
    let report = Builder {
        preemption_bound: Some(5),
        ..Builder::default()
    }
    .check(park_handshake(true));
    assert!(
        report.failure.is_none(),
        "push/park handshake failed: {}",
        report.failure.unwrap()
    );
    assert!(report.complete, "handshake exploration did not finish");
    assert!(
        report.iterations > 1000,
        "only {} interleavings explored",
        report.iterations
    );
}

/// Negative twin: without the pool-lock serialization the explorer MUST
/// find the lost wakeup (as a deadlock — the model condvar has no
/// spurious wakeups), with a replayable schedule.
#[test]
fn model_unserialized_notify_loses_wakeup() {
    let report = Builder::default().check(park_handshake(false));
    let failure = report
        .failure
        .expect("the unserialized notify must lose a wakeup in some schedule");
    assert_eq!(failure.kind, loom::FailureKind::Deadlock);
    assert!(!failure.schedule.is_empty(), "failure must be replayable");
}

/// Region ticket budget: with three contenders racing `try_ticket`, the
/// number of concurrent holders must never exceed `cap` — in any
/// interleaving of the Relaxed add/check/undo sequence.
fn contend(region: Arc<Region>, holders: Arc<ModelUsize>, cap: usize) {
    if region.try_ticket() {
        let now = holders.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
        assert!(
            now <= cap,
            "{now} concurrent ticket holders under cap {cap}"
        );
        holders.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        region.release_helper_ticket();
    }
}

fn region_budget(cap: usize) -> impl Fn() + Send + Sync + 'static {
    move || {
        let region = Region::new(cap);
        let holders = Arc::new(ModelUsize::new(0));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let (r, h) = (Arc::clone(&region), Arc::clone(&holders));
                loom::thread::spawn(move || contend(r, h, cap))
            })
            .collect();
        contend(Arc::clone(&region), Arc::clone(&holders), cap);
        for t in threads {
            t.join().unwrap();
        }
        // All tickets returned: the budget must be whole again.
        assert!(!region.saturated() || cap == 0);
        assert_eq!(region.active.load(Ordering::Relaxed), 0);
        assert!(region.peak_helpers.load(Ordering::Relaxed) <= cap);
    }
}

#[test]
fn model_region_budget_is_never_exceeded() {
    for cap in [1, 2] {
        // Bound 3: see model_push_park_handshake_never_loses_wakeup.
        let report = Builder {
            preemption_bound: Some(3),
            ..Builder::default()
        }
        .check(region_budget(cap));
        assert!(
            report.failure.is_none(),
            "region cap {cap} violated: {}",
            report.failure.unwrap()
        );
        assert!(report.complete, "region exploration did not finish");
        assert!(
            report.iterations > 1000,
            "only {} interleavings explored at cap {cap}",
            report.iterations
        );
    }
}

/// Job completion latch: a submitter and a helper race down the shared
/// cursor; the latch (`done` + wait mutex/condvar) must fire exactly when
/// the last piece completes, the submitter must never block forever, and
/// every piece must run exactly once.
#[test]
fn model_job_latch_fires_exactly_once() {
    let report = Builder::default().check(|| {
        let hits: Arc<Vec<ModelUsize>> = Arc::new((0..2).map(|_| ModelUsize::new(0)).collect());
        let h2 = Arc::clone(&hits);
        let body = move |i: usize| {
            h2[i].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        };
        let job = Arc::new(Job::new(&body, 2, 2, Region::new(2)));
        let j2 = Arc::clone(&job);
        let helper = loom::thread::spawn(move || j2.drain());
        job.drain();
        job.wait_and_drain();
        // The latch has fired: every piece is complete and counted once.
        assert_eq!(job.done.load(Ordering::Relaxed), 2);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(std::sync::atomic::Ordering::SeqCst),
                1,
                "piece {i} ran a wrong number of times"
            );
        }
        helper.join().unwrap();
    });
    assert!(
        report.failure.is_none(),
        "job latch failed: {}",
        report.failure.unwrap()
    );
    assert!(report.complete, "latch exploration did not finish");
}

/// The fixed hand-back buffer: a thief that cannot take a ticket returns
/// its stolen range via `return_range`; the submitter blocked in
/// `wait_and_drain` must pick it up and run it — the return-notify and
/// the latch wait must never miss each other.
#[test]
fn model_returned_range_reaches_the_submitter() {
    let report = Builder::default().check(|| {
        let hits: Arc<Vec<ModelUsize>> = Arc::new((0..2).map(|_| ModelUsize::new(0)).collect());
        let h2 = Arc::clone(&hits);
        let body = move |i: usize| {
            h2[i].fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        };
        let job = Arc::new(Job::new(&body, 2, 2, Region::new(2)));
        // Pretend a thief claimed both pieces off the cursor (so only the
        // hand-back path can run them), then handed them back.
        job.cursor.store(2, Ordering::Relaxed);
        let j2 = Arc::clone(&job);
        let thief = loom::thread::spawn(move || j2.return_range(0, 2));
        job.wait_and_drain();
        assert_eq!(job.done.load(Ordering::Relaxed), 2);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(std::sync::atomic::Ordering::SeqCst),
                1,
                "piece {i} ran a wrong number of times"
            );
        }
        thief.join().unwrap();
    });
    assert!(
        report.failure.is_none(),
        "hand-back protocol failed: {}",
        report.failure.unwrap()
    );
    assert!(report.complete, "hand-back exploration did not finish");
}
