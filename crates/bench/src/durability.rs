//! The durability experiment (EXPERIMENTS.md appendix C): what commit
//! durability costs, and how much of it group commit buys back.
//!
//! Three series, all deterministic virtual-time simulations charging the
//! [`tpcd::LogDevice`] flush-slot model on every commit:
//!
//! * **QthD** — the TPC-D throughput test under each [`CommitPolicy`],
//!   each on its own freshly loaded database.
//!   The DSS streams are read-only, so only the update stream pays; the
//!   point of this series is that QthD barely moves — the paper's workload
//!   is not commit-bound.
//! * **Order entry** — batch input of every order document, `clerks`
//!   parallel sessions, one COMMIT WORK per document. A document costs
//!   *seconds* of consistency checking (the paper's month-long load), so
//!   even per-commit fsync is noise here.
//! * **Order posting** — the commit-bound counterpart: many interactive
//!   clerks each posting a one-row status change per order (a
//!   dialog-step-sized unit of a few milliseconds behind ~100 ms of
//!   keying). The aggregate commit rate oversubscribes a
//!   per-commit-fsync log device; group commit lets one flush cover a
//!   whole batch of clerks and recovers most of the lost throughput.
//!
//! The order-entry workload is executed *once* to measure per-unit costs;
//! each commit policy then replays those costs through its own log device,
//! so the policies are compared on identical work.

use crate::experiments::{run_throughput_matrix, ThroughputSystem};
use r3::schema::{self, MANDT};
use r3::{R3System, Release};
use rdbms::error::DbResult;
use rdbms::CommitPolicy;
use std::collections::VecDeque;
use tpcd::records::LineItem;
use tpcd::{DbGen, LogDevice, ThroughputConfig, ThroughputResult};

/// The three policies every durability series records, in order.
pub const COMMIT_POLICIES: [CommitPolicy; 3] =
    [CommitPolicy::NoFsync, CommitPolicy::FsyncPerCommit, CommitPolicy::GroupCommit];

/// The TPC-D throughput test under each commit policy. Each policy runs on
/// a freshly loaded database with the same seed, so only the commit
/// charging differs (a shared database would hand each run the buffer
/// pool the previous one left).
pub fn run_qthd_series(
    system: ThroughputSystem,
    sf: f64,
    query_streams: usize,
    seed: u64,
    mut progress: impl FnMut(&ThroughputResult),
) -> DbResult<Vec<ThroughputResult>> {
    let mut out = Vec::new();
    for durability in COMMIT_POLICIES {
        let config = ThroughputConfig { query_streams, seed, durability, ..Default::default() };
        out.extend(run_throughput_matrix(system, sf, &[config], &mut progress)?);
    }
    Ok(out)
}

/// One phase of the order-entry experiment under one commit policy.
#[derive(Debug, Clone)]
pub struct OrderEntryResult {
    /// "entry" (batch-input documents) or "posting" (one-row updates).
    pub phase: String,
    pub durability: String,
    pub clerks: usize,
    /// Units committed (documents entered, or postings applied).
    pub documents: u64,
    /// Virtual seconds until the last clerk's last commit was durable.
    pub elapsed_seconds: f64,
    pub per_hour: f64,
    /// Total simulated seconds clerks spent waiting on the log device.
    pub commit_wait_seconds: f64,
    pub commits: u64,
    pub wal_flushes: u64,
}

impl OrderEntryResult {
    /// Average commits covered per log flush (1.0 = no batching).
    pub fn avg_batch(&self) -> f64 {
        if self.wal_flushes == 0 {
            0.0
        } else {
            self.commits as f64 / self.wal_flushes as f64
        }
    }
}

/// Replay measured per-unit costs through `clerks` parallel sessions and
/// one shared log device. Units are assigned round-robin; `think` seconds
/// of keying/think time precede each unit (0 for automated batch input),
/// with session starts staggered across one think period so interactive
/// clerks do not move in lockstep. Commits are processed in
/// virtual-arrival order (the clerk whose next commit lands earliest goes
/// first), so the device sees a causally ordered stream and the whole
/// replay is deterministic.
fn simulate(
    phase: &str,
    costs: &[f64],
    clerks: usize,
    think: f64,
    policy: CommitPolicy,
    flush_s: f64,
) -> OrderEntryResult {
    let mut queues: Vec<VecDeque<f64>> = vec![VecDeque::new(); clerks];
    for (i, &c) in costs.iter().enumerate() {
        queues[i % clerks].push_back(c);
    }
    let mut log = LogDevice::new(policy, flush_s);
    let mut vtime: Vec<f64> = (0..clerks).map(|c| think * c as f64 / clerks as f64).collect();
    let mut commit_wait = 0.0f64;
    while let Some(c) = (0..clerks).filter(|&c| !queues[c].is_empty()).min_by(|&a, &b| {
        let ta = vtime[a] + think + queues[a].front().unwrap();
        let tb = vtime[b] + think + queues[b].front().unwrap();
        ta.total_cmp(&tb).then(a.cmp(&b))
    }) {
        let arrival = vtime[c] + think + queues[c].pop_front().unwrap();
        let durable = log.commit(arrival);
        commit_wait += durable - arrival;
        vtime[c] = durable;
    }
    let elapsed = vtime.into_iter().fold(0.0, f64::max);
    OrderEntryResult {
        phase: phase.to_string(),
        durability: policy.as_str().to_string(),
        clerks,
        documents: costs.len() as u64,
        elapsed_seconds: elapsed,
        per_hour: if elapsed > 0.0 { costs.len() as f64 * 3600.0 / elapsed } else { 0.0 },
        commit_wait_seconds: commit_wait,
        commits: log.commits,
        wal_flushes: log.flushes,
    }
}

/// Interactive sessions in the posting phase. Batch input is an automated
/// background load, but postings are dialog steps: many clerks, each
/// spending [`POSTING_THINK_S`] keying before every posting. Sized so the
/// aggregate commit rate oversubscribes a per-commit-fsync log device by
/// roughly 2.5x — the regime group commit was built for.
pub const POSTING_USERS: usize = 48;

/// Keying/think time per interactive posting, seconds.
pub const POSTING_THINK_S: f64 = 0.1;

/// Run the order-entry durability experiment: measure the real metered
/// cost of entering every order document through batch input and of
/// posting a status change to each, then replay both cost profiles under
/// every commit policy — entry with `clerks` automated batch sessions,
/// posting with [`POSTING_USERS`] interactive clerks. Returns
/// `2 * COMMIT_POLICIES.len()` results ("entry" then "posting", each
/// no_fsync / fsync_per_commit / group_commit).
pub fn run_order_entry_series(sf: f64, clerks: usize) -> DbResult<Vec<OrderEntryResult>> {
    assert!(clerks >= 1);
    let sys = R3System::install_default(Release::R22)?;
    let gen = DbGen::new(sf);

    // Master data through the logical path: present for the documents'
    // referential checks, not part of the timed experiment.
    let masters = (gen.nations().iter().map(schema::nation_rows))
        .chain(gen.regions().iter().map(schema::region_rows))
        .chain(gen.suppliers().iter().map(schema::supplier_rows))
        .chain(gen.parts().iter().map(schema::part_rows))
        .chain(gen.partsupps().iter().map(schema::partsupp_rows))
        .chain(gen.customers().iter().map(schema::customer_rows))
        .collect::<Vec<_>>();
    for rows in masters {
        sys.insert_record(&rows)?;
    }
    sys.db.execute("ANALYZE")?;

    // Phase 1: enter every order document through the full batch-input
    // logic, measuring each document's metered cost.
    let (orders, lineitems) = gen.orders_and_lineitems();
    let cal = sys.db.calibration();
    let mut entry_costs = Vec::with_capacity(orders.len());
    let mut idx = 0usize;
    for o in &orders {
        let mut items: Vec<&LineItem> = Vec::new();
        while idx < lineitems.len() && lineitems[idx].orderkey == o.orderkey {
            items.push(&lineitems[idx]);
            idx += 1;
        }
        let before = sys.snapshot();
        sys.batch_input_order(o, &items)?;
        entry_costs.push(cal.seconds(&sys.snapshot().since(&before)));
    }
    sys.db.execute("ANALYZE")?;

    // Phase 2: one dialog-step-sized posting per order — a primary-key
    // status update, the smallest logical unit of work that commits.
    let mut posting_costs = Vec::with_capacity(orders.len());
    for o in &orders {
        let sql = format!(
            "UPDATE VBAK SET VBTYP = 'C' WHERE MANDT = '{MANDT}' AND VBELN = '{:016}'",
            o.orderkey
        );
        let before = sys.snapshot();
        sys.db_execute_direct(&sql)?;
        posting_costs.push(cal.seconds(&sys.snapshot().since(&before)));
    }

    let flush_s = cal.ms_wal_flush / 1000.0;
    let mut out = Vec::new();
    let phases = [
        ("entry", &entry_costs, clerks, 0.0),
        ("posting", &posting_costs, POSTING_USERS, POSTING_THINK_S),
    ];
    for (phase, costs, sessions, think) in phases {
        for policy in COMMIT_POLICIES {
            out.push(simulate(phase, costs, sessions, think, policy, flush_s));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_orders_commits_causally() {
        // Costs chosen so clerk arrivals interleave out of execution
        // order; the event-ordered replay must keep the device causal
        // (no commit waits behind a flush scheduled "later" than it).
        let costs = [1.0, 0.1, 0.2, 0.1, 0.1, 0.1];
        let f = 0.5;
        let fsync = simulate("t", &costs, 3, 0.0, CommitPolicy::FsyncPerCommit, f);
        let group = simulate("t", &costs, 3, 0.0, CommitPolicy::GroupCommit, f);
        let off = simulate("t", &costs, 3, 0.0, CommitPolicy::NoFsync, f);
        assert_eq!(fsync.commits, 6);
        assert_eq!(fsync.wal_flushes, 6);
        assert!(group.wal_flushes < 6, "concurrent clerks share flushes");
        assert!(off.elapsed_seconds <= group.elapsed_seconds);
        assert!(
            group.elapsed_seconds <= fsync.elapsed_seconds,
            "group {} vs fsync {}",
            group.elapsed_seconds,
            fsync.elapsed_seconds
        );
    }

    /// The first unit of every stream runs before any commit is charged,
    /// so on equal starting databases it does identical work under every
    /// policy; so does each stream as a whole.
    #[test]
    fn qthd_series_runs_every_policy_on_a_fresh_database() {
        let series = run_qthd_series(ThroughputSystem::Isolated, 0.01, 2, 42, |_| {}).unwrap();
        let labels: Vec<&str> = series.iter().map(|r| r.durability.as_str()).collect();
        assert_eq!(labels, ["no_fsync", "fsync_per_commit", "group_commit"]);
        let base = &series[0];
        for r in &series[1..] {
            for (a, b) in base.streams.iter().zip(&r.streams) {
                let (ua, ub) = (&a.units[0], &b.units[0]);
                let at = format!("{} {} under {}", a.stream, ua.unit, r.durability);
                assert_eq!(ua.unit, ub.unit, "{at}");
                assert_eq!(ua.work, ub.work, "{at}");
                assert_eq!(ua.seconds.to_bits(), ub.seconds.to_bits(), "{at}");
                assert_eq!(a.busy_seconds.to_bits(), b.busy_seconds.to_bits(), "{at}");
            }
        }
    }

    #[test]
    fn group_commit_recovers_most_of_the_posting_loss() {
        let results = run_order_entry_series(0.002, 8).unwrap();
        assert_eq!(results.len(), 6);
        let get = |phase: &str, durability: &str| {
            results.iter().find(|r| r.phase == phase && r.durability == durability).unwrap().clone()
        };
        // Batch-input documents cost seconds each: durability is noise.
        let entry_off = get("entry", "no_fsync");
        let entry_fsync = get("entry", "fsync_per_commit");
        assert_eq!(entry_fsync.commits, entry_fsync.documents);
        assert!(
            entry_fsync.per_hour > entry_off.per_hour * 0.95,
            "document entry is not commit-bound: {} vs {}",
            entry_fsync.per_hour,
            entry_off.per_hour
        );
        // One-row postings are commit-bound: fsync serializes the clerks,
        // group commit batches them and recovers most of the loss.
        let off = get("posting", "no_fsync");
        let fsync = get("posting", "fsync_per_commit");
        let group = get("posting", "group_commit");
        assert_eq!(fsync.wal_flushes, fsync.commits, "fsync never batches");
        assert!(group.wal_flushes < group.commits, "group commit batches clerks");
        assert!(group.avg_batch() > 1.5, "batching factor: {}", group.avg_batch());
        assert!(
            fsync.per_hour < off.per_hour * 0.75,
            "postings must be commit-bound for the comparison to mean anything: {} vs {}",
            fsync.per_hour,
            off.per_hour
        );
        let recovered = (group.per_hour - fsync.per_hour) / (off.per_hour - fsync.per_hour);
        assert!(recovered > 0.5, "group commit recovered only {:.0}%", recovered * 100.0);
        // Determinism: the same series reproduces bit-for-bit.
        let again = run_order_entry_series(0.002, 8).unwrap();
        for (a, b) in results.iter().zip(&again) {
            assert_eq!(a.elapsed_seconds.to_bits(), b.elapsed_seconds.to_bits());
            assert_eq!(a.wal_flushes, b.wal_flushes);
        }
    }
}
