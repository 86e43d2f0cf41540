//! The four workloads. Each builds its world from the seed, runs closed
//! loops against it window by window, and checks every answer it gets.

pub mod order_entry;
pub mod sap_reports;
pub mod tpcd_power;
pub mod wire_mixed;

use crate::oracle::{fnv1a, OpFacts, Verdict, FNV_OFFSET};
use crate::spans::{SpanRec, Tracer};
use crate::stats::Sample;
use rdbms::storage::codec::encode_row;
use rdbms::{CommitPolicy, Counter, DbError, MeterSnapshot, WaitEvent, WaitSnapshot};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcd::schema as rows;
use tpcd::DbGen;

/// Ops that lose a deadlock are retried this many times before they count
/// as failed.
pub const MAX_RETRIES: u32 = 5;

/// Layer metric name -> value, as measured by one traced run.
pub type Layers = BTreeMap<String, f64>;

#[derive(Clone)]
pub struct Config {
    pub seed: u64,
    /// Where write-ahead logs go (`benchmark/target/scratch/`).
    pub scratch: PathBuf,
}

/// The commit policy of the two logging workloads, traced or not: the log
/// is written at commit and not forced. `fsync` on this box's virtual disk
/// takes 0.3 to 1.4 ms depending on the minute, which put 73 % of
/// `order_entry`'s op time and a run-to-run spread of 24-36 % into every
/// timing metric: wider than any bound the driver admits. What a force
/// costs is the isolated probe `wal.commit_fsync_us`; that acknowledged
/// writes survive a crash is checked under a forcing policy by
/// `order_entry`'s durability burst.
pub const LOG_POLICY: CommitPolicy = CommitPolicy::NoFsync;
pub const LOG_POLICY_NAME: &str = "wal on, log written at commit, not forced";

/// Public counters of a world at one instant, summed over its databases.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub meter: MeterSnapshot,
    pub wait: WaitSnapshot,
}

impl Counters {
    pub fn of(db: &rdbms::Database) -> Counters {
        Counters { meter: db.snapshot(), wait: db.wait_stats().snapshot() }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters { meter: self.meter.since(&earlier.meter), wait: self.wait.since(&earlier.wait) }
    }

    pub fn plus(&self, other: &Counters) -> Counters {
        Counters { meter: self.meter.plus(&other.meter), wait: self.wait.plus(&other.wait) }
    }

    pub fn get(&self, c: Counter) -> f64 {
        self.meter.get(c) as f64
    }

    pub fn wait_us(&self, e: WaitEvent) -> f64 {
        self.wait.micros(e) as f64
    }
}

/// What one measurement window produced.
#[derive(Debug, Default)]
pub struct WindowRun {
    pub seconds: f64,
    pub samples: Vec<Sample>,
    /// Counter delta over the whole window.
    pub counters: Counters,
    /// What the per-op count metrics are taken over: the window's first
    /// round on the single-client workloads (it repeats exactly, however
    /// many rounds the clock allowed), the whole window on the concurrent
    /// ones.
    pub basis: Counters,
    pub basis_ops: u64,
    /// Result rows returned during the basis.
    pub basis_rows: u64,
    /// Deadlock retries over the whole window.
    pub retries: u64,
    /// `wire_mixed` only: time the server spent serving messages, and
    /// request bytes the clients framed, during the window.
    pub server_service_us: u64,
    pub request_bytes: u64,
}

impl WindowRun {
    pub fn ops(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn op_seconds(&self) -> f64 {
        self.samples.iter().map(|s| s.ns as f64).sum::<f64>() / 1e9
    }

    /// Basis counter per op.
    pub fn per_op(&self, c: Counter) -> f64 {
        self.basis.get(c) / self.basis_ops.max(1) as f64
    }
}

/// Facts fixed at set-up.
#[derive(Debug, Clone, Default)]
pub struct SetupFacts {
    pub sf: f64,
    pub pool_bytes: usize,
    pub flush_policy: &'static str,
    pub clients: usize,
    /// Allocated pages x PAGE_SIZE / encoded bytes of the original
    /// eight-table TPC-D rows.
    pub stored_bytes_per_user_byte: f64,
    pub rows_loaded: u64,
    /// Generate + load + index build + server/dispatcher start, without
    /// what the world builds for its oracle: one `setup_s` sample.
    pub setup_seconds: f64,
    pub dbgen_ms: f64,
}

pub trait World {
    fn op_types(&self) -> &[String];
    fn facts(&self) -> &SetupFacts;
    /// One untimed round (or a second of load) so caches fill and lazy
    /// set-up finishes. On the single-client workloads this is round 0:
    /// its result hashes and counters are checked against the committed
    /// expectation for the seed, when there is one.
    fn warm_up(&mut self);
    /// Round-0 facts recorded by `warm_up` (empty on the concurrent
    /// workloads, whose interleaving is not repeatable).
    fn round0(&self) -> BTreeMap<String, OpFacts>;
    /// Closed-loop load for `window`; round-based workloads stop at the
    /// first round boundary after it.
    fn run_window(&mut self, window: Duration, tracer: Option<&Arc<Tracer>>) -> WindowRun;
    /// This workload's in-run layer metrics, from the untraced phase of a
    /// traced run and the spans of its traced phase.
    fn layer_metrics(&self, untraced: &WindowRun, spans: &[SpanRec], out: &mut Layers);
    /// End-of-run checks (validation, read-back, crash and recover). Adds
    /// what it measured on the way to `layers`.
    fn finish(self: Box<Self>, layers: &mut Layers) -> Verdict;
}

pub fn setup(name: &str, cfg: &Config) -> Box<dyn World> {
    match name {
        "tpcd_power" => Box::new(tpcd_power::TpcdPower::setup(cfg)),
        "sap_reports" => Box::new(sap_reports::SapReports::setup(cfg)),
        "order_entry" => Box::new(order_entry::OrderEntry::setup(cfg)),
        "wire_mixed" => Box::new(wire_mixed::WireMixed::setup(cfg)),
        other => panic!("unknown workload {other}"),
    }
}

/// FNV hash of the first `n` ops a workload would issue for this seed:
/// the seed-determinism fingerprint (same seed, same hash).
pub fn op_sequence_hash(name: &str, seed: u64, n: usize) -> u64 {
    match name {
        "tpcd_power" => tpcd_power::op_sequence_hash(seed, n),
        "sap_reports" => sap_reports::op_sequence_hash(seed, n),
        "order_entry" => order_entry::op_sequence_hash(seed, n),
        "wire_mixed" => wire_mixed::op_sequence_hash(seed, n),
        other => panic!("unknown workload {other}"),
    }
}

/// Encoded size of the original TPC-D population (the "user bytes" under
/// `stored_bytes_per_user_byte`), its row count, and how long the
/// generator took to produce it (`load.dbgen_ms`).
pub fn user_data(gen: &DbGen) -> (u64, u64, f64) {
    let started = Instant::now();
    let (regions, nations, suppliers) = (gen.regions(), gen.nations(), gen.suppliers());
    let (parts, partsupps, customers) = (gen.parts(), gen.partsupps(), gen.customers());
    let (orders, lineitems) = gen.orders_and_lineitems();
    let dbgen_ms = started.elapsed().as_secs_f64() * 1e3;
    let size = |row: Vec<rdbms::Value>| encode_row(&row).len() as u64;
    let bytes = regions.iter().map(|r| size(rows::region_row(r))).sum::<u64>()
        + nations.iter().map(|n| size(rows::nation_row(n))).sum::<u64>()
        + suppliers.iter().map(|s| size(rows::supplier_row(s))).sum::<u64>()
        + parts.iter().map(|p| size(rows::part_row(p))).sum::<u64>()
        + partsupps.iter().map(|ps| size(rows::partsupp_row(ps))).sum::<u64>()
        + customers.iter().map(|c| size(rows::customer_row(c))).sum::<u64>()
        + orders.iter().map(|o| size(rows::order_row(o))).sum::<u64>()
        + lineitems.iter().map(|l| size(rows::lineitem_row(l))).sum::<u64>();
    let n = regions.len()
        + nations.len()
        + suppliers.len()
        + parts.len()
        + partsupps.len()
        + customers.len()
        + orders.len()
        + lineitems.len();
    (bytes, n as u64, dbgen_ms)
}

/// `run_window` of the two round-based workloads: whole rounds until
/// `window` has passed, the first of them the count basis. `round` appends
/// its samples and returns (result rows, counter delta).
pub fn run_rounds<W>(
    world: &mut W,
    window: Duration,
    counters: impl Fn(&W) -> Counters,
    mut round: impl FnMut(&mut W, &mut Vec<Sample>) -> (u64, Counters),
) -> WindowRun {
    let mut run = WindowRun::default();
    let before = counters(world);
    let started = Instant::now();
    while started.elapsed() < window {
        let first = run.samples.is_empty();
        let (rows, delta) = round(world, &mut run.samples);
        if first {
            run.basis = delta;
            run.basis_ops = run.samples.len() as u64;
            run.basis_rows = rows;
        }
    }
    run.seconds = started.elapsed().as_secs_f64();
    run.counters = counters(world).since(&before);
    run
}

/// Op-sequence fingerprint of a round-based workload: the order is fixed
/// (whole rounds), so it is the generator's seed followed by the op names.
pub fn round_robin_hash(gen: &DbGen, names: &[String], n: usize) -> u64 {
    let start = fnv1a(FNV_OFFSET, &gen.seed.to_le_bytes());
    (0..n).fold(start, |h, i| fnv1a(h, names[i % names.len()].as_bytes()))
}

pub fn is_deadlock(e: &DbError) -> bool {
    matches!(e, DbError::Deadlock(_))
}

/// Median latency in `unit_ns` units of one op type, if it ran.
pub fn type_median(run: &WindowRun, ty: usize, unit_ns: f64) -> Option<f64> {
    let v: Vec<f64> =
        run.samples.iter().filter(|s| s.ty as usize == ty).map(|s| s.ns as f64 / unit_ns).collect();
    (!v.is_empty()).then(|| crate::stats::median(&v))
}

/// Record a layer metric where the counter behind it moved: a layer the
/// workload bypasses is left out, never reported as 0.
fn put_if_moved(out: &mut Layers, name: &str, v: f64) {
    if v.is_finite() && v > 0.0 {
        out.insert(name.to_string(), v);
    }
}

/// Count metrics shared by every workload that runs the engine.
pub fn engine_layer_metrics(untraced: &WindowRun, out: &mut Layers) {
    let mut put = |name: &str, v: f64| put_if_moved(out, name, v);
    let b = untraced;
    put("pager.misses_per_op", b.basis.meter.pages_read() as f64 / b.basis_ops.max(1) as f64);
    put("pager.page_writes_per_op", b.per_op(Counter::PageWrites));
    put("btree.node_reads_per_op", b.per_op(Counter::IndexNodeReads));
    put("exec.tuples_per_op", b.per_op(Counter::DbTuples));
    put("exec.tuples_per_result_row", b.basis.get(Counter::DbTuples) / b.basis_rows as f64);
    // Engine time inside `Plan::execute`, from the Exec wait accumulator.
    let exec_us = b.counters.wait_us(WaitEvent::Exec);
    put("exec.execute_ms", exec_us / 1e3 / b.ops() as f64);
    put("exec.fraction", exec_us / 1e6 / b.op_seconds());
    put("exec.ns_per_tuple", exec_us * 1e3 / b.counters.get(Counter::DbTuples));
}

/// Lock and WAL count metrics of the two concurrent workloads. (What the
/// log force costs them is measured where a force happens: in
/// `order_entry`'s durability burst.)
pub fn concurrency_layer_metrics(run: &WindowRun, out: &mut Layers) {
    let mut put = |name: &str, v: f64| put_if_moved(out, name, v);
    let ops = run.ops() as f64;
    let op_us = run.op_seconds() * 1e6;
    let c = &run.counters;
    put("lock.waits_per_op", c.get(Counter::LockWaits) / ops);
    put("lock.wait_fraction", c.wait_us(WaitEvent::Lock) / op_us);
    put("lock.row_locks_per_op", c.get(Counter::RowLocks) / ops);
    put("lock.escalations_per_kop", c.get(Counter::LockEscalations) * 1e3 / ops);
    put("lock.retries_per_op", run.retries as f64 / ops);
    put("wal.bytes_per_op", c.get(Counter::WalBytes) / ops);
    put("wal.records_per_op", c.get(Counter::WalRecords) / ops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;

    #[test]
    fn the_same_seed_gives_the_same_op_sequence_and_another_seed_another() {
        for (name, _) in WORKLOADS {
            let a = op_sequence_hash(name, 42, 1000);
            assert_eq!(a, op_sequence_hash(name, 42, 1000), "{name}: seed 42 twice");
            assert_ne!(a, op_sequence_hash(name, 7, 1000), "{name}: seed 42 against seed 7");
            assert_ne!(
                a,
                op_sequence_hash(name, 42, 500),
                "{name}: a longer sequence hashes differently"
            );
        }
    }

    #[test]
    fn user_data_is_the_generator_population() {
        let gen = DbGen::with_seed(0.0002, 42);
        let (bytes, rows, _) = user_data(&gen);
        let expected_rows =
            5 + 25 + gen.n_suppliers() + gen.n_parts() * 5 + gen.n_customers() + gen.n_orders();
        let (_, lineitems) = gen.orders_and_lineitems();
        assert_eq!(rows as i64, expected_rows + lineitems.len() as i64);
        assert!(bytes > rows * 20, "{bytes} bytes for {rows} rows");
        assert_eq!(user_data(&gen).0, bytes, "same generator, same bytes");
    }
}
