//! Admission control for scan prefetch.
//!
//! Morsel scans overlap I/O by prefetching upcoming row groups. Against a
//! throttling object store that is a liability: every SlowDown stretches
//! the prefetch call, and unbounded speculative windows pile more work
//! behind it — exactly the congestion the paper's tuned prefetch (§1) and
//! Taurus's "fast and frugal" argument warn about. The
//! [`PrefetchAdmission`] controller bounds the speculative groups in
//! flight and adapts the bound AIMD-style: additive increase on each
//! successful prefetch, multiplicative (halving) decrease whenever the
//! backend pushes back with [`IqError::Throttled`] or a retry budget runs
//! out. A denied admission is not queued — the scan simply *sheds* the
//! speculative window and lets those pages arrive as demand loads, so a
//! degraded backend slows the scan down instead of burying itself under
//! speculative GETs.
//!
//! The per-morsel *self*-prefetch (the load that keeps the metered
//! demand/prefetch split independent of worker timing) is never gated:
//! only speculative read-ahead is shed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use iq_common::trace::{self, EventKind};
use iq_common::{IoStats, IqError};

/// How many upcoming row groups one morsel wants in flight while it
/// processes the current one.
pub const PREFETCH_DEPTH: usize = 4;

/// Bounded, AIMD-adapted admission for speculative prefetch windows.
///
/// One controller lives for the duration of one scan. The hard ceiling is
/// `workers × PREFETCH_DEPTH`: each worker holds at most one window ticket
/// of at most [`PREFETCH_DEPTH`] groups at a time, so a fault-free scan
/// never sheds — the controller only bites when throttling has shrunk the
/// limit below the natural concurrency.
pub struct PrefetchAdmission {
    /// Hard ceiling (and fault-free steady-state value) for `limit`.
    max: usize,
    /// Current in-flight budget in row groups; AIMD-adjusted.
    limit: AtomicUsize,
    /// Speculative row groups currently being prefetched.
    in_flight: AtomicUsize,
    /// Windows shed (diagnostic, drained by the scan ablation).
    shed: AtomicUsize,
    /// Shared submission-layer counters of the reactor feeding this scan.
    /// When present, AIMD *growth* targets the observed queue-depth
    /// headroom (`depth_target − ops_in_flight`) instead of the fixed
    /// `depth × PREFETCH_DEPTH` ceiling: after a throttle, the window
    /// regrows only as fast as the reactor is actually draining.
    reactor: Option<Arc<IoStats>>,
    /// Submission depth the scan targets (its up-front morsel batch).
    depth_target: usize,
}

impl PrefetchAdmission {
    /// Controller for a scan running on `workers` morsel workers.
    pub fn new(workers: usize) -> Self {
        Self::for_depth(workers)
    }

    /// Controller sized from the scan's I/O submission depth — how many
    /// morsels the reactor-era scan site actually submits up front —
    /// rather than from worker count. With the submission/completion
    /// core a scan keeps every survivor morsel in flight at once, so
    /// the ceiling must scale with that depth or deep scans on few
    /// workers would shed speculative windows even fault-free.
    pub fn for_depth(depth: usize) -> Self {
        let max = depth.max(1) * PREFETCH_DEPTH;
        Self {
            max,
            limit: AtomicUsize::new(max),
            in_flight: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            reactor: None,
            depth_target: depth.max(1),
        }
    }

    /// Drive AIMD *growth* toward the reactor's observed queue-depth
    /// headroom: `record_success` grows the window only up to
    /// `PREFETCH_DEPTH × (1 + depth_target − ops_in_flight)` (clamped to
    /// the hard ceiling). A saturated reactor pauses regrowth at one
    /// window; headroom opening back up lets it resume. The fault-free
    /// path is untouched — the budget starts at the hard ceiling and
    /// only throttling ever pulls it below.
    pub fn with_io(mut self, reactor: Arc<IoStats>, depth_target: usize) -> Self {
        self.reactor = Some(reactor);
        self.depth_target = depth_target.max(1);
        self
    }

    /// The value `record_success` may currently grow the budget toward.
    fn growth_ceiling(&self) -> usize {
        match &self.reactor {
            None => self.max,
            Some(stats) => {
                let in_flight = stats.ops_in_flight.load(Ordering::Relaxed) as usize;
                let headroom = self.depth_target.saturating_sub(in_flight);
                (PREFETCH_DEPTH * (1 + headroom)).min(self.max)
            }
        }
    }

    /// Ask to put `groups` speculative row groups in flight. `None` means
    /// the budget is exhausted: the caller sheds the window (the pages
    /// will be demand-loaded) rather than queueing. The returned ticket
    /// releases the budget when dropped.
    pub fn admit(&self, groups: usize) -> Option<PrefetchTicket<'_>> {
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current + groups > self.limit.load(Ordering::Relaxed) {
                self.shed.fetch_add(1, Ordering::Relaxed);
                trace::emit(EventKind::PrefetchShed {
                    groups: groups as u64,
                });
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + groups,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(PrefetchTicket { ctrl: self, groups }),
                Err(seen) => current = seen,
            }
        }
    }

    /// A prefetch completed cleanly: grow the budget by one group, up to
    /// the current growth ceiling (the additive half of AIMD). With a
    /// reactor attached the ceiling tracks observed submission-depth
    /// headroom; without one it is the fixed hard ceiling.
    pub fn record_success(&self) {
        let ceiling = self.growth_ceiling();
        let _ = self
            .limit
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                (l < ceiling).then_some(l + 1)
            });
    }

    /// A prefetch failed. Throttle-class errors (store SlowDown, retry
    /// budget exhausted) halve the budget — the multiplicative half of
    /// AIMD; anything else leaves it alone (the subsequent demand read
    /// will surface a real fault to the query).
    pub fn record_error(&self, err: &IqError) {
        if !matches!(
            err,
            IqError::Throttled(_) | IqError::RetriesExhausted { .. }
        ) {
            return;
        }
        let updated = self
            .limit
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                (l > 1).then_some((l / 2).max(1))
            });
        if let Ok(prev) = updated {
            trace::emit(EventKind::PrefetchThrottle {
                limit: ((prev / 2).max(1)) as u64,
            });
        }
    }

    /// Current in-flight budget in row groups.
    pub fn limit(&self) -> usize {
        self.limit.load(Ordering::Relaxed)
    }

    /// Windows shed so far.
    pub fn shed_windows(&self) -> usize {
        self.shed.load(Ordering::Relaxed)
    }
}

/// RAII admission ticket; dropping it returns the groups to the budget.
pub struct PrefetchTicket<'a> {
    ctrl: &'a PrefetchAdmission,
    groups: usize,
}

impl Drop for PrefetchTicket<'_> {
    fn drop(&mut self) {
        self.ctrl.in_flight.fetch_sub(self.groups, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_workers_never_shed() {
        // W workers each holding one ≤DEPTH-group ticket fit the ceiling.
        let ctrl = PrefetchAdmission::new(8);
        let tickets: Vec<_> = (0..8).map(|_| ctrl.admit(PREFETCH_DEPTH)).collect();
        assert!(tickets.iter().all(|t| t.is_some()));
        assert_eq!(ctrl.shed_windows(), 0);
        drop(tickets);
        assert!(ctrl.admit(PREFETCH_DEPTH).is_some());
    }

    #[test]
    fn exhausted_budget_sheds_instead_of_queueing() {
        let ctrl = PrefetchAdmission::new(1); // budget: 4 groups
        let t1 = ctrl.admit(4).expect("fits");
        assert!(ctrl.admit(1).is_none(), "over budget must shed");
        assert_eq!(ctrl.shed_windows(), 1);
        drop(t1);
        assert!(ctrl.admit(4).is_some(), "budget returned on ticket drop");
    }

    #[test]
    fn throttling_halves_and_success_regrows() {
        let ctrl = PrefetchAdmission::new(2); // ceiling 8
        let slow = IqError::Throttled("SlowDown".into());
        ctrl.record_error(&slow);
        assert_eq!(ctrl.limit(), 4);
        ctrl.record_error(&slow);
        ctrl.record_error(&slow);
        ctrl.record_error(&slow);
        assert_eq!(ctrl.limit(), 1, "floor is one group");
        for _ in 0..100 {
            ctrl.record_success();
        }
        assert_eq!(ctrl.limit(), 8, "additive increase caps at the ceiling");
    }

    #[test]
    fn non_throttle_errors_leave_the_budget_alone() {
        let ctrl = PrefetchAdmission::new(2);
        ctrl.record_error(&IqError::Io("disk on fire".into()));
        assert_eq!(ctrl.limit(), 8);
    }

    #[test]
    fn regrowth_tracks_reactor_headroom() {
        let stats = Arc::new(IoStats::new());
        // Depth target 4 → hard ceiling 16 groups.
        let ctrl = PrefetchAdmission::for_depth(4).with_io(Arc::clone(&stats), 4);
        assert_eq!(ctrl.limit(), 16, "fault-free start is the hard ceiling");
        let slow = IqError::Throttled("SlowDown".into());
        ctrl.record_error(&slow);
        ctrl.record_error(&slow);
        assert_eq!(ctrl.limit(), 4);

        // Reactor saturated: 4 logical ops in flight, zero headroom —
        // regrowth pauses at one window (PREFETCH_DEPTH groups).
        stats.note_submit_batch(4);
        for _ in 0..50 {
            ctrl.record_success();
        }
        assert_eq!(ctrl.limit(), PREFETCH_DEPTH, "no headroom, no growth");

        // Two ops retire → headroom 2 → ceiling 4 × (1 + 2) = 12.
        stats.note_ops_complete(2);
        for _ in 0..50 {
            ctrl.record_success();
        }
        assert_eq!(ctrl.limit(), 12, "growth resumes with observed headroom");

        // Fully drained → regrow to the hard ceiling, never past it.
        stats.note_ops_complete(2);
        for _ in 0..50 {
            ctrl.record_success();
        }
        assert_eq!(ctrl.limit(), 16);
    }

    #[test]
    fn fault_free_scans_ignore_the_dynamic_ceiling() {
        // Saturated reactor, but no throttle ever fired: the budget stays
        // at the hard ceiling (growth gating must not become a new way to
        // shed on a healthy store).
        let stats = Arc::new(IoStats::new());
        stats.note_submit_batch(64);
        let ctrl = PrefetchAdmission::for_depth(8).with_io(stats, 8);
        assert_eq!(ctrl.limit(), 32);
        ctrl.record_success();
        assert_eq!(ctrl.limit(), 32);
        assert!(ctrl.admit(PREFETCH_DEPTH).is_some());
        assert_eq!(ctrl.shed_windows(), 0);
    }
}
