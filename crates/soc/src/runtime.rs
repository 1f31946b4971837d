//! The worker pool the SOC engine and the server run their passes on.
//!
//! [`with_pool`] runs each pass on `workers` threads: the caller and
//! `workers - 1` scoped threads kept for the length of its body. Each
//! [`Pool::pass`] hands the listed items out one at a time from one
//! atomic cursor and returns once every item has run: the pass's end
//! barrier is its completion signal. An item runs on exactly one thread,
//! so work keyed by item (a shard, a tenant) keeps its own order under
//! any schedule. A pass of one item runs on the caller, where waking the
//! pool would only add two barrier crossings.
//!
//! Each pass also takes a `caller` closure: the calling thread runs it
//! once, after it releases the workers and before it takes items, so
//! main-thread work that does not touch the items runs while the
//! workers serve: the server frees the last round's requests and draws
//! the next round's arrivals, and the SOC engine journals the last
//! tick's events during each advance pass. A pass of at most one item
//! runs the closure and then the item on the caller.
//!
//! The caller takes items like any worker rather than sleeping through
//! the pass: on a small virtual machine, waking a parked caller at the
//! end of every pass costs more than the barrier crossings themselves.
//! One worker thus means no thread and no barrier at all.
//!
//! Between passes the workers park at the `start` barrier rather than
//! spin. A bounded spin-then-park pool was tried on a shared 2-vCPU
//! VM: against this parked barrier it ran `fleet_ops` at 15.2 M
//! host-ticks/s to 14.4 M in the two ledger pairs run while the VM was
//! quiet, but at 4.7 M to 10.4 M in the four pairs run while it was
//! contended, where a spinning worker holds a core the caller or
//! another guest needs. The small quiet-machine gain does not pay for
//! that loss, so the pool parks.
//!
//! A panic in an item or in the `caller` closure does not strand the
//! pass: the thread that ran it catches it, the pass still ends, and
//! the caller re-raises the first payload.
//! Leaving the body, normally or by a panic, releases the workers so the
//! scope can join them.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;

use parking_lot::{Mutex, RwLock};

/// What the caller and the workers share.
struct Shared<J> {
    /// The current pass, one `(job, item)` per item. Written by the
    /// caller only while the workers wait at `start`.
    items: RwLock<Vec<(J, usize)>>,
    /// Index of the next item to hand out.
    cursor: AtomicUsize,
    /// The first panic an item of the current pass raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    stop: AtomicBool,
    start: Barrier,
    end: Barrier,
}

/// A running pool of persistent workers; see [`with_pool`].
pub struct Pool<'p, J> {
    work: &'p (dyn Fn(J, usize) + Sync),
    shared: &'p Shared<J>,
}

impl<J: Copy> Pool<'_, J> {
    /// Runs `work(job, item)` once for every item in `items`, and
    /// returns when all of them have run. The calling thread runs
    /// `caller` once per pass: after it releases the workers and before
    /// it takes items, or, for a pass of at most one item, before the
    /// item.
    ///
    /// # Panics
    /// Re-raises the first panic an item or `caller` raised, once the
    /// pass is over.
    pub fn pass(&self, job: J, items: &[usize], caller: impl FnOnce()) {
        match *items {
            [] => caller(),
            [item] => {
                caller();
                (self.work)(job, item);
            }
            _ => {
                let shared = self.shared;
                {
                    let mut list = shared.items.write();
                    list.clear();
                    list.extend(items.iter().map(|&item| (job, item)));
                }
                shared.cursor.store(0, Ordering::SeqCst);
                shared.start.wait();
                self.catch(caller);
                self.drain();
                shared.end.wait();
                if let Some(payload) = shared.panic.lock().take() {
                    panic::resume_unwind(payload);
                }
            }
        }
    }

    /// Runs items of the current pass until none is left.
    fn drain(&self) {
        let shared = self.shared;
        let items = shared.items.read();
        while let Some(&(job, item)) = items.get(shared.cursor.fetch_add(1, Ordering::SeqCst)) {
            self.catch(|| (self.work)(job, item));
        }
    }

    /// Runs `f`, keeping its panic for the caller to re-raise if it is
    /// the pass's first.
    fn catch(&self, f: impl FnOnce()) {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
            let mut first = self.shared.panic.lock();
            if first.is_none() {
                *first = Some(payload);
            }
        }
    }

    /// A spawned worker's life: each pass, take items until none is
    /// left, then wait for the next pass or the stop.
    fn serve(&self) {
        loop {
            self.shared.start.wait();
            if self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            self.drain();
            self.shared.end.wait();
        }
    }
}

/// Releases the workers when the body ends, normally or by a panic: they
/// pass their start barrier, see the stop flag and return, so the scope
/// joins them instead of waiting on a barrier no one else reaches.
struct Release<'p, J>(&'p Shared<J>);

impl<J> Drop for Release<'_, J> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::SeqCst);
        self.0.start.wait();
    }
}

/// Starts `workers - 1` threads that, with the caller, run
/// `work(job, item)` for the items of each [`Pool::pass`]; calls `body`
/// with the pool, and joins the threads before returning what `body`
/// returned.
///
/// # Panics
/// When `workers` is zero, and with any panic of `body` or of a pass.
pub fn with_pool<J, R>(
    workers: usize,
    work: impl Fn(J, usize) + Sync,
    body: impl FnOnce(&Pool<'_, J>) -> R,
) -> R
where
    J: Copy + Send + Sync,
{
    assert!(workers > 0, "a pool needs at least one worker");
    let shared = Shared {
        items: RwLock::new(Vec::new()),
        cursor: AtomicUsize::new(0),
        panic: Mutex::new(None),
        stop: AtomicBool::new(false),
        start: Barrier::new(workers),
        end: Barrier::new(workers),
    };
    let pool = Pool {
        work: &work,
        shared: &shared,
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| pool.serve());
        }
        let _release = Release(&shared);
        body(&pool)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{self, ThreadId};

    #[test]
    fn every_item_runs_exactly_once_over_passes_of_any_length() {
        let runs: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        let work = |pass: usize, item: usize| {
            runs[item].fetch_add(pass + 1, Ordering::SeqCst);
        };
        with_pool(3, work, |pool| {
            for pass in 0..200 {
                let len = pass % runs.len();
                let items: Vec<usize> = (0..len).collect();
                pool.pass(pass, &items, || ());
                for (item, n) in runs.iter().enumerate() {
                    let want = if item < len { pass + 1 } else { 0 };
                    assert_eq!(n.swap(0, Ordering::SeqCst), want, "pass {pass} item {item}");
                }
            }
        });
    }

    #[test]
    fn a_panic_on_a_worker_fails_the_pass_on_the_caller() {
        let caller = thread::current().id();
        let both_running = Barrier::new(2);
        let finished = AtomicUsize::new(0);
        let work = |(): (), _item: usize| {
            // Neither item gets past this alone, so one runs on the
            // caller and the other on the spawned worker.
            both_running.wait();
            assert_eq!(thread::current().id(), caller, "the worker's item fails");
            finished.fetch_add(1, Ordering::SeqCst);
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            with_pool(2, work, |pool| pool.pass((), &[0, 1], || ()));
        }));
        let payload = outcome.expect_err("the worker's panic reaches the caller");
        let message = payload.downcast_ref::<String>().expect("formatted message");
        assert!(message.contains("the worker's item fails"), "{message}");
        assert_eq!(finished.into_inner(), 1, "the caller's item still finished");
    }

    #[test]
    fn a_one_item_pass_and_a_one_worker_pool_run_on_the_caller() {
        let ran_on: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        let work = |(): (), _item: usize| ran_on.lock().push(thread::current().id());
        with_pool(4, work, |pool| pool.pass((), &[3], || ()));
        with_pool(1, work, |pool| pool.pass((), &[0, 1, 2], || ()));
        let ran_on = ran_on.into_inner();
        assert_eq!(ran_on.len(), 4);
        assert!(ran_on.iter().all(|&t| t == thread::current().id()));
    }

    #[test]
    fn the_caller_closure_runs_once_per_pass_before_the_caller_takes_items() {
        let caller = thread::current().id();
        let both_running = Barrier::new(2);
        let items_run = AtomicUsize::new(0);
        let run_by_caller = AtomicUsize::new(0);
        let work = |meet: bool, _item: usize| {
            // Items that meet here cannot finish alone, so a pass of
            // two runs one on the caller and one on the worker.
            if meet {
                both_running.wait();
            }
            items_run.fetch_add(1, Ordering::SeqCst);
            if thread::current().id() == caller {
                run_by_caller.fetch_add(1, Ordering::SeqCst);
            }
        };
        with_pool(2, work, |pool| {
            for (meet, items) in [(false, &[][..]), (false, &[0][..]), (true, &[0, 1][..])] {
                let mut calls = Vec::new();
                pool.pass(meet, items, || {
                    calls.push((thread::current().id(), run_by_caller.load(Ordering::SeqCst)));
                });
                let len = items.len();
                assert_eq!(calls, [(caller, 0)], "a pass of {len} items");
                assert_eq!(items_run.swap(0, Ordering::SeqCst), len);
                assert_eq!(run_by_caller.swap(0, Ordering::SeqCst), len.min(1));
            }
        });
    }

    #[test]
    fn a_panic_in_the_caller_closure_fails_the_pass_after_the_workers_finish() {
        let raised = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let work = |(): (), _item: usize| {
            // No item finishes before the closure has panicked, so the
            // caller must wait for the worker's items before re-raising.
            while !raised.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            finished.fetch_add(1, Ordering::SeqCst);
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            with_pool(2, work, |pool| {
                pool.pass((), &[0, 1, 2, 3], || {
                    raised.store(true, Ordering::SeqCst);
                    panic!("the caller's closure fails");
                });
            });
        }));
        let payload = outcome.expect_err("the closure's panic reaches the caller");
        let message = payload.downcast_ref::<&str>().expect("static message");
        assert_eq!(*message, "the caller's closure fails");
        assert_eq!(finished.into_inner(), 4, "every item still ran");
    }
}
