//! Wait-event taxonomy and accumulators — the "where did the time go"
//! instrument the cost meter cannot answer.
//!
//! The meter counts *work* (pages, tuples, crossings); a DBA staring at a
//! stalled workload needs *waits*: who is parked on a lock, who is inside
//! an `fsync`, who is queued behind a busy work process. SAP's SM50/DB01
//! screens and every modern engine's wait-event interface
//! (`pg_stat_activity.wait_event`, Oracle's `V$SYSTEM_EVENT`) answer that
//! question live. This module is the substrate: a small fixed taxonomy
//! ([`WaitEvent`]), per-event count + duration accumulators
//! ([`WaitStats`]) and RAII timers ([`WaitTimer`]). A statement gets its
//! own wait attribution from the request it is served under: every record
//! also lands in the request trace active on the thread (see
//! [`crate::request`]), which keeps per-event totals.
//!
//! Durations are wall-clock microseconds, not cost-clock units: waits are
//! real thread blocking (condvar parks, file syncs, queue latency), which
//! the deterministic cost model intentionally does not simulate.

use serde_json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One class of wait. The discriminant indexes [`WaitStats`] storage and
/// [`WaitEvent::name`] is the one source of truth for names in the
/// `M$WAIT_EVENTS` view and JSON exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum WaitEvent {
    /// Blocked on a table/row lock held by another transaction (DB01).
    Lock = 0,
    /// Inside a log force: the leader's write+sync of the WAL file.
    WalFlush,
    /// Parked as a group-commit follower waiting for a leader's flush to
    /// cover this transaction's LSN.
    GroupCommitWait,
    /// Queued in a dispatcher request queue before a work process picked
    /// the request up (SM50's "waiting" state).
    DispatchQueue,
    /// Executing a statement's plan (the on-CPU bucket; everything above
    /// is off-CPU time carved out of it).
    Exec,
}

impl WaitEvent {
    pub const COUNT: usize = 5;

    pub const ALL: [WaitEvent; WaitEvent::COUNT] = [
        WaitEvent::Lock,
        WaitEvent::WalFlush,
        WaitEvent::GroupCommitWait,
        WaitEvent::DispatchQueue,
        WaitEvent::Exec,
    ];

    /// Stable snake_case name, used in `M$WAIT_EVENTS` and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            WaitEvent::Lock => "lock",
            WaitEvent::WalFlush => "wal_flush",
            WaitEvent::GroupCommitWait => "group_commit_wait",
            WaitEvent::DispatchQueue => "dispatch_queue",
            WaitEvent::Exec => "exec",
        }
    }
}

/// Atomic per-event wait accumulators: occurrence count and total waited
/// microseconds, indexed by [`WaitEvent`] discriminant.
#[derive(Debug, Default)]
pub struct WaitStats {
    counts: [AtomicU64; WaitEvent::COUNT],
    micros: [AtomicU64; WaitEvent::COUNT],
}

impl WaitStats {
    pub fn new() -> Arc<Self> {
        Arc::new(WaitStats::default())
    }

    /// Record one completed wait. It also lands in the request being
    /// served on this thread, if any (see [`crate::request`]), so a
    /// statement sees the lock waits incurred deep in the storage layer
    /// without threading a handle through every call.
    pub fn record(&self, event: WaitEvent, waited: Duration) {
        let micros = waited.as_micros() as u64;
        self.counts[event as usize].fetch_add(1, Ordering::Relaxed);
        self.micros[event as usize].fetch_add(micros, Ordering::Relaxed);
        crate::request::note_wait(event, micros);
    }

    /// Start a timer that records into this stats object when finished.
    pub fn timer(self: &Arc<Self>, event: WaitEvent) -> WaitTimer {
        WaitTimer { stats: Arc::clone(self), event, start: Instant::now(), armed: true }
    }

    pub fn count(&self, event: WaitEvent) -> u64 {
        self.counts[event as usize].load(Ordering::Relaxed)
    }

    pub fn micros(&self, event: WaitEvent) -> u64 {
        self.micros[event as usize].load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> WaitSnapshot {
        WaitSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            micros: std::array::from_fn(|i| self.micros[i].load(Ordering::Relaxed)),
        }
    }

    /// Reset every accumulator to zero (between experiment phases).
    pub fn reset(&self) {
        for c in self.counts.iter().chain(self.micros.iter()) {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// RAII wall-clock timer for one wait. Records into its [`WaitStats`] on
/// drop (or explicitly via [`WaitTimer::finish`]).
pub struct WaitTimer {
    stats: Arc<WaitStats>,
    event: WaitEvent,
    start: Instant,
    armed: bool,
}

impl WaitTimer {
    /// Stop the timer and record the elapsed wait now, returning it.
    pub fn finish(mut self) -> Duration {
        let waited = self.start.elapsed();
        self.armed = false;
        self.stats.record(self.event, waited);
        waited
    }

    /// Drop the timer without recording anything (the wait didn't happen).
    pub fn cancel(mut self) {
        self.armed = false;
    }
}

impl Drop for WaitTimer {
    fn drop(&mut self) {
        if self.armed {
            self.stats.record(self.event, self.start.elapsed());
        }
    }
}

/// Immutable point-in-time copy of a [`WaitStats`], with difference
/// support mirroring [`MeterSnapshot`](crate::MeterSnapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitSnapshot {
    counts: [u64; WaitEvent::COUNT],
    micros: [u64; WaitEvent::COUNT],
}

impl WaitSnapshot {
    pub fn count(&self, event: WaitEvent) -> u64 {
        self.counts[event as usize]
    }

    pub fn micros(&self, event: WaitEvent) -> u64 {
        self.micros[event as usize]
    }

    /// Count one more wait of `micros` microseconds.
    pub(crate) fn add(&mut self, event: WaitEvent, micros: u64) {
        self.counts[event as usize] += 1;
        self.micros[event as usize] += micros;
    }

    /// Waits incurred between `earlier` and `self` (saturating, for the
    /// same cross-thread relaxed-ordering reason as `MeterSnapshot`).
    pub fn since(&self, earlier: &WaitSnapshot) -> WaitSnapshot {
        WaitSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].saturating_sub(earlier.counts[i])),
            micros: std::array::from_fn(|i| self.micros[i].saturating_sub(earlier.micros[i])),
        }
    }

    /// Event-wise sum of two snapshots.
    pub fn plus(&self, other: &WaitSnapshot) -> WaitSnapshot {
        WaitSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].saturating_add(other.counts[i])),
            micros: std::array::from_fn(|i| self.micros[i].saturating_add(other.micros[i])),
        }
    }

    pub fn is_zero(&self) -> bool {
        self.counts.iter().all(|&v| v == 0) && self.micros.iter().all(|&v| v == 0)
    }

    pub fn total_micros(&self) -> u64 {
        self.micros.iter().sum()
    }

    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        for ev in WaitEvent::ALL {
            obj = obj.field(
                ev.name(),
                Json::object()
                    .field("count", Json::from(self.count(ev)))
                    .field("micros", Json::from(self.micros(ev))),
            );
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discriminants_match_all_order() {
        for (i, ev) in WaitEvent::ALL.iter().enumerate() {
            assert_eq!(*ev as usize, i, "{}", ev.name());
        }
        assert_eq!(WaitEvent::ALL.len(), WaitEvent::COUNT);
    }

    #[test]
    fn record_accumulates_count_and_micros() {
        let w = WaitStats::new();
        w.record(WaitEvent::Lock, Duration::from_micros(150));
        w.record(WaitEvent::Lock, Duration::from_micros(50));
        w.record(WaitEvent::WalFlush, Duration::ZERO);
        assert_eq!(w.count(WaitEvent::Lock), 2);
        assert_eq!(w.micros(WaitEvent::Lock), 200);
        assert_eq!(w.count(WaitEvent::WalFlush), 1);
        assert_eq!(w.micros(WaitEvent::WalFlush), 0);
        assert_eq!(w.snapshot().total_micros(), 200);
    }

    #[test]
    fn timer_records_on_drop_and_finish() {
        let w = WaitStats::new();
        {
            let _t = w.timer(WaitEvent::GroupCommitWait);
        }
        assert_eq!(w.count(WaitEvent::GroupCommitWait), 1);
        let waited = w.timer(WaitEvent::WalFlush).finish();
        assert_eq!(w.count(WaitEvent::WalFlush), 1);
        assert!(w.micros(WaitEvent::WalFlush) <= waited.as_micros() as u64 + 1);
        w.timer(WaitEvent::Lock).cancel();
        assert_eq!(w.count(WaitEvent::Lock), 0);
    }

    #[test]
    fn snapshot_since_and_plus() {
        let w = WaitStats::new();
        w.record(WaitEvent::Lock, Duration::from_micros(5));
        let a = w.snapshot();
        w.record(WaitEvent::Lock, Duration::from_micros(3));
        let b = w.snapshot();
        let d = b.since(&a);
        assert_eq!(d.count(WaitEvent::Lock), 1);
        assert_eq!(d.micros(WaitEvent::Lock), 3);
        // since saturates rather than underflowing.
        assert!(a.since(&b).is_zero());
        let s = a.plus(&d);
        assert_eq!(s, b);
    }
}
