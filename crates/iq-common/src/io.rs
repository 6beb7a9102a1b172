//! The submission/completion I/O core.
//!
//! An io_uring-shaped model: callers *submit* a batch of operations and
//! then await their completions, so the number of operations in flight is
//! bounded by how much work was submitted — not by how many threads
//! happen to be blocked inside the backend. Two pieces sit on
//! the I/O path, the first of which implements that model:
//!
//! * [`IoCore`] (this module) — the caller-side fan-out. It owns the
//!   submission accounting: all `n` tasks of a batch are counted in
//!   flight the moment the batch is submitted, and each completion
//!   retires one. Execution itself is carried by a small scoped worker
//!   set (the core's execution lanes), but the *depth* reported by
//!   [`IoStats`] is submission depth, which is the quantity the paper's
//!   prefetch/scan pipelines care about.
//! * `IoReactor` (in `iq-objectstore`) — the backend-side gate. Every
//!   object-store request takes it, runs on the thread that issued it
//!   and is counted on its own; one request runs at a time, so op-clock
//!   and journal order are the order of arrival at the gate, which is
//!   what keeps the golden Table-1 trace byte-identical.
//!
//! Both sides feed one shared [`IoStats`], exported as the `io.*`
//! metrics source.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Shared counters for the submission/completion core — the `io.*`
/// metrics source. One instance per database, fed from both ends of the
/// pipe: the [`IoCore`] fan-out accounts logical operations
/// (submission-depth in-flight tracking), the backend reactor accounts
/// store requests (arrivals waiting at its gate, completions, failures),
/// and the group-commit gather accounts coalesced log appends.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Store requests that arrived at the backend reactor's gate.
    pub submitted: AtomicU64,
    /// Requests that ran to an outcome (success or failure).
    pub completed: AtomicU64,
    /// Requests whose outcome was an error.
    pub failed: AtomicU64,
    /// Peak number of requests that had arrived at the gate and not
    /// started yet, the newest arrival included.
    pub queue_depth_peak: AtomicU64,
    /// Logical operations currently submitted and not yet completed at
    /// the [`IoCore`] layer (scan morsels, flush groups, delete chunks).
    pub ops_in_flight: AtomicU64,
    /// Peak of [`Self::ops_in_flight`] — submission depth, not thread
    /// count: a batch of `n` operations drives this to at least `n`
    /// however few execution lanes carry it.
    pub in_flight_peak: AtomicU64,
    /// Transaction-log appends absorbed into another append's PUT by the
    /// group-commit gather (each leader PUT of a batch of `k` adds
    /// `k - 1`).
    pub coalesced_appends: AtomicU64,
}

impl IoStats {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account a batch of `n` logical operations submitted for
    /// completion.
    pub fn note_submit_batch(&self, n: usize) {
        let now = self.ops_in_flight.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
        self.in_flight_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Account `n` logical operations completing (retired from the
    /// in-flight set).
    pub fn note_ops_complete(&self, n: usize) {
        self.ops_in_flight.fetch_sub(n as u64, Ordering::Relaxed);
    }

    /// Account a store request arriving at the reactor's gate, the
    /// `depth`-th waiting to start (itself included).
    pub fn note_request_submitted(&self, depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth_peak
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Account one store request finishing; `ok` is false when its
    /// outcome was an error.
    pub fn note_request_completed(&self, ok: bool) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Account a group-commit gather that folded `batch` appends into one
    /// PUT.
    pub fn note_coalesced_batch(&self, batch: usize) {
        self.coalesced_appends
            .fetch_add(batch.saturating_sub(1) as u64, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            in_flight_peak: self.in_flight_peak.load(Ordering::Relaxed),
            coalesced_appends: self.coalesced_appends.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Store requests that arrived at the reactor's gate.
    pub submitted: u64,
    /// Requests that ran to an outcome.
    pub completed: u64,
    /// Requests whose outcome was an error.
    pub failed: u64,
    /// Peak arrivals waiting at the gate to start.
    pub queue_depth_peak: u64,
    /// Peak logical operations in flight at the submission layer.
    pub in_flight_peak: u64,
    /// Log appends coalesced into group-commit PUTs.
    pub coalesced_appends: u64,
}

/// The caller-side submission/completion fan-out.
///
/// An `IoCore` turns a batch of `n` ordered tasks into `n` submitted
/// operations whose completions are gathered back in task order. The
/// execution lanes are the submitting thread and `lanes - 1` scoped
/// threads (the simulation has no async runtime and needs none —
/// backends account virtual time, they do not sleep), but the
/// *accounting* is submission-first: the whole batch is
/// in flight from the moment it is submitted, which is what decouples
/// reported I/O depth from lane count.
///
/// Error semantics match a serial left-to-right run: the error from the
/// lowest-indexed failing task wins and unclaimed later tasks are
/// skipped. Completions are stitched back in task order, so parallel
/// output is byte-identical to serial output.
#[derive(Clone)]
pub struct IoCore {
    lanes: usize,
    stats: Option<Arc<IoStats>>,
}

impl std::fmt::Debug for IoCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoCore")
            .field("lanes", &self.lanes)
            .field("stats", &self.stats.is_some())
            .finish()
    }
}

impl IoCore {
    /// A core with `lanes` execution lanes. Zero is clamped to one; a
    /// one-lane core runs every task inline on the caller's thread.
    pub fn new(lanes: usize) -> Self {
        Self {
            lanes: lanes.max(1),
            stats: None,
        }
    }

    /// Attach the shared [`IoStats`] this core should account submission
    /// depth into.
    pub fn with_stats(mut self, stats: Arc<IoStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Number of execution lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Submit `tasks` ordered tasks and await their completions in task
    /// order.
    ///
    /// `f(i)` computes task `i`; tasks are claimed in increasing order but
    /// may complete out of order. On failure the error from the
    /// lowest-indexed failing task is returned — the same error a serial
    /// left-to-right run would surface — and remaining unclaimed tasks are
    /// skipped. Tasks already in flight when a failure lands run to
    /// completion (scoped lanes always join), but their results are
    /// discarded.
    pub fn run_ordered<T, E, F>(&self, tasks: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        if tasks == 0 {
            return Ok(Vec::new());
        }
        // Submission-first accounting: the whole batch is in flight now.
        if let Some(stats) = &self.stats {
            stats.note_submit_batch(tasks);
        }
        let out = self.execute(tasks, f);
        if let Some(stats) = &self.stats {
            // Retire whatever submit charged, including skipped tasks —
            // a failed batch completes (with an error), it does not leak
            // in-flight depth.
            stats.note_ops_complete(tasks);
        }
        out
    }

    fn execute<T, E, F>(&self, tasks: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        if self.lanes == 1 || tasks == 1 {
            // Serial fast path: no spawn, no locks, early return on error.
            let mut out = Vec::with_capacity(tasks);
            for i in 0..tasks {
                out.push(f(i)?);
            }
            return Ok(out);
        }

        let results: Mutex<Vec<Option<T>>> = Mutex::new((0..tasks).map(|_| None).collect());
        // Lowest failing task index wins, matching the serial error.
        let failure: Mutex<Option<(usize, E)>> = Mutex::new(None);
        let cursor = AtomicUsize::new(0);

        let lane = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                return;
            }
            // Tasks below any recorded failure index must still run:
            // the serial-equivalent error is the lowest one.
            if failure.lock().as_ref().is_some_and(|(fi, _)| i > *fi) {
                continue;
            }
            match f(i) {
                Ok(v) => results.lock()[i] = Some(v),
                Err(e) => {
                    let mut slot = failure.lock();
                    if slot.as_ref().is_none_or(|(fi, _)| i < *fi) {
                        *slot = Some((i, e));
                    }
                }
            }
        };
        // The caller is one of the lanes: a batch costs `lanes - 1` thread
        // spawns, and the caller works through the tasks meanwhile rather
        // than sleeping until lanes that have yet to start finish them.
        std::thread::scope(|scope| {
            for _ in 1..self.lanes.min(tasks) {
                scope.spawn(lane);
            }
            lane();
        });

        if let Some((_, e)) = failure.into_inner() {
            return Err(e);
        }
        Ok(results
            .into_inner()
            .into_iter()
            .map(|slot| slot.expect("every task completed without failure"))
            .collect())
    }
}

impl Default for IoCore {
    fn default() -> Self {
        Self::new(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        let io = IoCore::new(4);
        let out: Result<Vec<usize>, ()> = io.run_ordered(100, |i| Ok(i * 3));
        assert_eq!(out.unwrap(), (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_and_zero_lanes_are_fine() {
        let io = IoCore::new(0);
        assert_eq!(io.lanes(), 1);
        let out: Result<Vec<u8>, ()> = io.run_ordered(0, |_| Ok(0));
        assert_eq!(out.unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial: Result<Vec<String>, ()> =
            IoCore::new(1).run_ordered(37, |i| Ok(format!("task-{i}")));
        let parallel: Result<Vec<String>, ()> =
            IoCore::new(8).run_ordered(37, |i| Ok(format!("task-{i}")));
        assert_eq!(serial.unwrap(), parallel.unwrap());
    }

    #[test]
    fn lowest_index_error_wins() {
        // Every odd task fails; the reported error must be task 1's, same
        // as a serial left-to-right run, regardless of completion order.
        for _ in 0..8 {
            let err: Result<Vec<usize>, String> = IoCore::new(4).run_ordered(64, |i| {
                if i % 2 == 1 {
                    Err(format!("boom-{i}"))
                } else {
                    Ok(i)
                }
            });
            assert_eq!(err.unwrap_err(), "boom-1");
        }
    }

    #[test]
    fn lanes_overlap_and_a_failure_skips_the_tail() {
        let io = IoCore::new(4);
        // All four tasks block on the barrier, so this only returns if
        // four lanes really carry them at once.
        let gate = std::sync::Barrier::new(4);
        let out = io.run_ordered(4, |i| {
            gate.wait();
            Ok::<usize, ()>(i)
        });
        assert_eq!(out.unwrap(), vec![0, 1, 2, 3]);

        // An early failure skips later unclaimed tasks.
        let ran = AtomicUsize::new(0);
        let err = io.run_ordered(1000, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err(())
            } else {
                Ok(i)
            }
        });
        assert!(err.is_err());
        assert!(ran.into_inner() < 1000, "failure should skip the tail");
    }

    #[test]
    fn serial_fast_path_stops_at_first_error() {
        let ran = AtomicUsize::new(0);
        let err: Result<Vec<usize>, &str> = IoCore::new(1).run_ordered(10, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                Err("stop")
            } else {
                Ok(i)
            }
        });
        assert_eq!(err.unwrap_err(), "stop");
        assert_eq!(ran.into_inner(), 4);
    }

    #[test]
    fn submission_depth_exceeds_lane_count() {
        // The io_uring property this PR exists for: in-flight depth is the
        // number of submitted operations, not the number of lanes carrying
        // them. 2 lanes, 16 submitted ops → peak 16.
        let stats = Arc::new(IoStats::new());
        let io = IoCore::new(2).with_stats(Arc::clone(&stats));
        let out: Result<Vec<usize>, ()> = io.run_ordered(16, Ok);
        assert_eq!(out.unwrap().len(), 16);
        let snap = stats.snapshot();
        assert_eq!(snap.in_flight_peak, 16);
        assert!(snap.in_flight_peak > io.lanes() as u64);
        // Every submitted op retired.
        assert_eq!(stats.ops_in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn failed_batches_retire_their_submission_depth() {
        let stats = Arc::new(IoStats::new());
        let io = IoCore::new(4).with_stats(Arc::clone(&stats));
        let err: Result<Vec<usize>, ()> =
            io.run_ordered(64, |i| if i == 0 { Err(()) } else { Ok(i) });
        assert!(err.is_err());
        assert_eq!(
            stats.ops_in_flight.load(Ordering::Relaxed),
            0,
            "skipped tasks must not leak in-flight depth"
        );
        assert_eq!(stats.snapshot().in_flight_peak, 64);
    }
}
