//! Standing shard-leg workers: the threads a [`crate::ShardedEngine`] runs
//! the extra legs of a query's fan-out on.
//!
//! A query scans one leg per shard. The caller runs leg 0 itself and
//! [`LegWorkers::offer`]s every other leg to an idle worker; a leg no idle
//! worker takes runs on the caller after its own. A leg is never queued
//! behind another query's leg, so a busy or a dead worker is never handed
//! work, and many connections cannot pile up behind a few workers.
//!
//! The workers are started with the engine and joined when it drops. Each
//! waits on its own condition variable, which consumes the seat guard, so
//! no lock is held while a worker sleeps or runs a leg.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// One leg handed to a worker. It is called with the worker's idle signal
/// and must raise it before it delivers its result: a closed-loop caller's
/// next query then always finds the worker idle again.
pub(crate) type Job = Box<dyn FnOnce(&dyn Fn()) + Send>;

/// What a worker is doing.
enum Seat {
    /// Waiting; the only state [`LegWorkers::offer`] hands a job to.
    Idle,
    /// Handed a job it has not yet taken.
    Ready(Job),
    /// Running a job.
    Busy,
    /// The pool is dropping: the worker exits.
    Closed,
}

struct Worker {
    seat: Mutex<Seat>,
    wake: Condvar,
}

impl Worker {
    fn seat(&self) -> std::sync::MutexGuard<'_, Seat> {
        self.seat.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Busy → idle. A closed seat stays closed, so a late signal cannot
    /// keep a worker from exiting.
    fn idle(&self) {
        let mut seat = self.seat();
        if matches!(*seat, Seat::Busy) {
            *seat = Seat::Idle;
        }
    }

    /// The worker thread: take a job, run it, go idle; until closed.
    fn serve(&self) {
        loop {
            let mut seat = self.seat();
            let job = loop {
                match std::mem::replace(&mut *seat, Seat::Busy) {
                    Seat::Ready(job) => break job,
                    Seat::Closed => return,
                    Seat::Idle | Seat::Busy => {
                        *seat = Seat::Idle;
                        seat = self.wake.wait(seat).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            };
            drop(seat);
            job(&|| self.idle());
        }
    }
}

/// A fixed set of standing leg workers, joined on drop.
pub(crate) struct LegWorkers {
    workers: Vec<(Arc<Worker>, JoinHandle<()>)>,
}

impl LegWorkers {
    /// Starts `count` workers. A worker whose thread cannot be spawned is
    /// left out: its legs run on their callers.
    pub(crate) fn start(count: usize) -> Self {
        let workers = (0..count)
            .filter_map(|i| {
                let worker = Arc::new(Worker {
                    seat: Mutex::new(Seat::Idle),
                    wake: Condvar::new(),
                });
                let serving = Arc::clone(&worker);
                std::thread::Builder::new()
                    .name(format!("cind-leg-{i}"))
                    .spawn(move || serving.serve())
                    .ok()
                    .map(|handle| (worker, handle))
            })
            .collect();
        Self { workers }
    }

    /// Number of standing workers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.workers.len()
    }

    /// Hands the job `make` builds to an idle worker. `false` when every
    /// worker is busy, or there is none; `make` is then not called, and the
    /// caller runs the leg itself.
    pub(crate) fn offer(&self, make: impl FnOnce() -> Job) -> bool {
        for (worker, _) in &self.workers {
            let mut seat = worker.seat();
            if matches!(*seat, Seat::Idle) {
                *seat = Seat::Ready(make());
                drop(seat);
                worker.wake.notify_one();
                return true;
            }
        }
        false
    }

    /// Every worker's shared state, for checking in tests that the threads
    /// holding it are gone.
    #[cfg(test)]
    pub(crate) fn watch(&self) -> Vec<std::sync::Weak<impl Sized>> {
        self.workers
            .iter()
            .map(|(worker, _)| Arc::downgrade(worker))
            .collect()
    }
}

impl Drop for LegWorkers {
    fn drop(&mut self) {
        for (worker, _) in &self.workers {
            *worker.seat() = Seat::Closed;
            worker.wake.notify_one();
        }
        for (_, handle) in self.workers.drain(..) {
            // A leg's panic is caught inside its job, so a worker never
            // ends in one.
            let _ = handle.join();
        }
    }
}
