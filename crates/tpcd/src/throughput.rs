//! The TPC-D throughput test (multi-user): N concurrent query streams plus
//! one update stream running UF1/UF2 pairs in transactions.
//!
//! ## Deterministic virtual-time scheduling
//!
//! The whole workspace measures *simulated* seconds derived from metered
//! physical work, so the throughput test is driven the same way: as a
//! discrete-event simulation over virtual time. Each stream owns a virtual
//! clock; the driver always executes the next unit of the stream whose
//! clock is furthest behind (ties break toward the lowest stream id), so
//! unit execution order — and therefore database state, metered work, and
//! every reported time — is identical across runs. Real-thread concurrency
//! is exercised separately by the `r3` dispatcher and the lock-manager
//! tests; here determinism is the point, exactly like the cost clock
//! itself.
//!
//! ## Lock interference model
//!
//! Each unit holds a set of [`LockClaim`]s for its duration. Claims are
//! the engine's own [`LockRequest`]s, and whether two of them make each
//! other wait is [`LockRequest::conflicts`] — the function the lock
//! manager grants by. A query claims exactly the read locks
//! [`select_read_locks`] plans for it: table S where the plan scans,
//! existing-row locks where it probes (IS + row S, no phantom protection,
//! so RF1's fresh-key inserts slip past). The refresh functions claim X on
//! their orderkey block instead of whole tables. [`LockModel::Table`] maps
//! every claim through [`LockRequest::table_granular`], reproducing the
//! pre-hierarchical behaviour for baseline comparison. Waits are charged
//! to the stream as lock-wait seconds and metered as `Counter::LockWaits`.
//!
//! A unit that aborts with `DbError::Deadlock` is rolled back and retried
//! with exponential backoff (charged as lock wait, metered as
//! `Counter::DeadlockRetries`) instead of failing the run — TPC-D requires
//! the refresh streams to survive deadlock victimization.
//!
//! The composite metric follows the TPC-D throughput definition:
//! `QthD = (S * 17 * 3600 / T) * SF` with `T` the elapsed (virtual)
//! seconds of the whole test.

use crate::dbgen::DbGen;
use crate::queries::{self, QueryParams};
use rdbms::error::{DbError, DbResult};
use rdbms::lock::{KeyRange, LockMode, LockRequest, RowLock};
use rdbms::sql::ast::{SelectStmt, Statement};
use rdbms::sql::parse_statement;
use rdbms::storage::codec::encode_key;
use rdbms::txn::{referenced_tables, select_read_locks, ReadLockPlan};
use rdbms::types::Value;
use rdbms::{CommitPolicy, Counter, Database, PlanCache};
use std::collections::{BTreeSet, HashMap};
use trace::meter::MeterSnapshot;
use trace::Histogram;

/// Retries before a deadlock victim gives up for good.
pub const MAX_DEADLOCK_RETRIES: u32 = 4;
/// Simulated backoff before the first deadlock retry; doubles per retry.
pub const DEADLOCK_BACKOFF_S: f64 = 0.05;

/// One lock a unit holds for its duration, in the engine's own terms:
/// whether two claims conflict is [`LockRequest::conflicts`].
#[derive(Debug, Clone, PartialEq)]
pub struct LockClaim {
    /// Upper-cased table (or physical container) name.
    pub table: String,
    pub req: LockRequest,
}

/// The virtual-time log device (DESIGN.md §10.6): the engine's
/// [`CommitPolicy`] charged in simulated seconds instead of real fsyncs. A
/// single flusher whose slots take [`rdbms::Calibration::ms_wal_flush`] each;
/// [`CommitPolicy::NoFsync`] forces nothing and charges nothing. Group
/// commit mirrors the engine's protocol — a commit that arrives before a
/// scheduled flush *starts* is covered by it (its records are in the
/// buffer the leader writes); a commit that arrives while a flush is in
/// progress parks for the next one.
#[derive(Debug)]
pub struct LogDevice {
    policy: CommitPolicy,
    flush_s: f64,
    /// Start/end of the most recently scheduled flush slot.
    slot: Option<(f64, f64)>,
    /// Commits charged through the device.
    pub commits: u64,
    /// Flush slots scheduled (the virtual fsync count).
    pub flushes: u64,
}

impl LogDevice {
    pub fn new(policy: CommitPolicy, flush_s: f64) -> LogDevice {
        LogDevice { policy, flush_s, slot: None, commits: 0, flushes: 0 }
    }

    /// A commit reaches the log at virtual second `t`; returns the virtual
    /// second it is durable (== `t` when nothing is forced).
    pub fn commit(&mut self, t: f64) -> f64 {
        if self.policy == CommitPolicy::NoFsync {
            return t;
        }
        self.commits += 1;
        let (start, end) = match (self.policy, self.slot) {
            // Group commit: the scheduled flush has not started, so join
            // its batch.
            (CommitPolicy::GroupCommit, Some((start, end))) if start >= t => return end,
            // A flush is in progress: queue a new one behind it (a private
            // flush, or the follower batch that flushes the moment the
            // leader's completes).
            (_, Some((_, end))) if end > t => (end, end + self.flush_s),
            // Device idle: lead a new flush.
            _ => (t, t + self.flush_s),
        };
        self.slot = Some((start, end));
        self.flushes += 1;
        end
    }

    /// Charge `n` sequential commits from one caller (each waits for its
    /// own durability before issuing the next), returning the final
    /// completion time.
    pub fn commit_n(&mut self, t: f64, n: u64) -> f64 {
        let mut done = t;
        for _ in 0..n {
            done = self.commit(done);
        }
        done
    }
}

/// Which locking granularity the interference model simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockModel {
    /// Table-granular S/X — the baseline the seed shipped with.
    Table,
    /// The engine's hierarchical granularity (intention + row/key-range).
    #[default]
    Hierarchical,
}

impl LockModel {
    pub fn as_str(&self) -> &'static str {
        match self {
            LockModel::Table => "table",
            LockModel::Hierarchical => "hierarchical",
        }
    }
}

/// A workload the throughput driver can execute: one of the paper's three
/// configurations (isolated RDBMS, SAP R/3 Native SQL, SAP R/3 Open SQL).
/// Implementations run the unit and return its row count; the driver
/// meters work on the workload's [`Database`].
pub trait StreamWorkload {
    /// Human-readable configuration name for reports.
    fn name(&self) -> String;
    /// The database the units run on. The driver takes each unit's work
    /// from its meter, converts it with its calibration, and bumps
    /// `Counter::LockWaits`/`Counter::DeadlockRetries` on it.
    fn db(&self) -> &Database;
    /// Execute TPC-D query `n`, returning the number of answer rows.
    fn run_query(&self, n: usize, params: &QueryParams) -> DbResult<u64>;
    /// Execute UF1 for `stream` (inside a transaction where the
    /// configuration supports one), returning rows inserted.
    fn run_uf1(&self, stream: u64) -> DbResult<u64>;
    /// Execute UF2 for `stream`, returning rows deleted.
    fn run_uf2(&self, stream: u64) -> DbResult<u64>;
    /// Locks query `n` holds for the duration of its unit.
    fn query_locks(&self, n: usize, params: &QueryParams) -> Vec<LockClaim>;
    /// Locks UF1 (the RF1 inserts for `stream`) holds.
    fn uf1_locks(&self, stream: u64) -> Vec<LockClaim>;
    /// Locks UF2 (the RF2 deletes for `stream`) holds.
    fn uf2_locks(&self, stream: u64) -> Vec<LockClaim>;
    /// How many commits one UF unit for `stream` issues. The isolated
    /// RDBMS runs each refresh function as a single transaction; the SAP
    /// configurations COMMIT WORK once per batch-input document.
    fn uf_commits(&self, _stream: u64) -> u64 {
        1
    }
}

/// Throughput-test configuration.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputConfig {
    /// Number of concurrent query streams (TPC-D `S`). The update stream
    /// runs one UF1/UF2 pair per query stream.
    pub query_streams: usize,
    /// Seed for the per-stream query permutations.
    pub seed: u64,
    /// Locking granularity the interference model simulates.
    pub lock_model: LockModel,
    /// How commits are charged in virtual time: the engine's commit
    /// policy played on a [`LogDevice`].
    pub durability: CommitPolicy,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            query_streams: 4,
            seed: 42,
            lock_model: LockModel::default(),
            // Not `CommitPolicy::default()` (group commit): the driver
            // charges no commits unless asked to.
            durability: CommitPolicy::NoFsync,
        }
    }
}

/// One executed unit (a query or an update function) within a stream.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// "Q5", "UF1(2)", ...
    pub unit: String,
    /// Virtual second the unit's locks were granted.
    pub start: f64,
    /// Simulated seconds the stream waited for locks before `start`
    /// (including deadlock-retry backoff).
    pub lock_wait: f64,
    /// Simulated execution seconds (excluding lock wait).
    pub seconds: f64,
    /// Simulated seconds the unit waited for its commits to become
    /// durable on the log device (0 with durability off and for queries).
    pub commit_wait: f64,
    /// Answer rows (queries) or rows touched (update functions).
    pub rows: u64,
    /// Deadlock aborts this unit rolled back and retried.
    pub retries: u32,
    /// Metered work of the unit.
    pub work: MeterSnapshot,
}

/// Everything one stream did.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// "S1".."Sn" for query streams, "UPD" for the update stream.
    pub stream: String,
    pub units: Vec<UnitResult>,
    /// Sum of unit execution seconds.
    pub busy_seconds: f64,
    /// Sum of simulated lock-wait seconds — the metered breakdown the
    /// paper-style tables report per stream.
    pub lock_wait_seconds: f64,
    /// Virtual second this stream finished its last unit.
    pub finished_at: f64,
    /// Distribution of unit response times (lock wait + execution) in
    /// simulated microseconds.
    pub latency_us: Histogram,
}

/// Full throughput-test result.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    pub configuration: String,
    pub sf: f64,
    pub query_streams: usize,
    /// Locking granularity the run was modeled with.
    pub lock_model: String,
    /// Durability mode the run was modeled with.
    pub durability: String,
    /// Commits charged to the virtual log device.
    pub commits: u64,
    /// Flush slots (virtual fsyncs) the log device scheduled.
    pub wal_flushes: u64,
    /// Elapsed virtual seconds (start of test to last unit end).
    pub elapsed_seconds: f64,
    /// TPC-D composite throughput metric `QthD@Size`.
    pub qthd: f64,
    pub streams: Vec<StreamResult>,
}

impl ThroughputResult {
    pub fn stream(&self, name: &str) -> Option<&StreamResult> {
        self.streams.iter().find(|s| s.stream == name)
    }

    /// Total simulated lock-wait seconds across all streams.
    pub fn total_lock_wait(&self) -> f64 {
        self.streams.iter().map(|s| s.lock_wait_seconds).sum()
    }
}

enum Unit {
    Query(usize),
    Uf1(u64),
    Uf2(u64),
}

struct StreamState {
    units: Vec<Unit>,
    next: usize,
    vtime: f64,
    result: StreamResult,
}

/// Claims granted so far, with the virtual second each is held until.
#[derive(Default)]
struct GrantedLocks {
    by_table: HashMap<String, Vec<(LockRequest, f64)>>,
}

impl GrantedLocks {
    /// Earliest virtual second at or after `vtime` when every claim can be
    /// granted: the maximum end of any conflicting held claim.
    fn grant_time(&self, claims: &[LockClaim], vtime: f64) -> f64 {
        let mut start = vtime;
        for c in claims {
            if let Some(held) = self.by_table.get(&c.table) {
                for (req, end) in held {
                    if *end > start && c.req.conflicts(req) {
                        start = *end;
                    }
                }
            }
        }
        start
    }

    fn hold(&mut self, claims: &[LockClaim], end: f64) {
        for c in claims {
            self.by_table.entry(c.table.clone()).or_default().push((c.req.clone(), end));
        }
    }
}

/// Deterministic Fisher–Yates permutation of 1..=17 from a 64-bit seed
/// (SplitMix64 steps; independent of any RNG crate).
fn query_permutation(seed: u64) -> Vec<usize> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (1..=17).collect();
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Run the throughput test: `S` query streams (each a seeded permutation
/// of Q1..Q17) interleaved with one update stream running `S` UF1/UF2
/// pairs in transactions. Fully deterministic for a given workload state,
/// config, and seed.
pub fn run_throughput_test<W: StreamWorkload + ?Sized>(
    workload: &W,
    params: &QueryParams,
    sf: f64,
    config: &ThroughputConfig,
) -> DbResult<ThroughputResult> {
    if config.query_streams == 0 {
        return Err(DbError::execution("throughput test needs at least one query stream"));
    }
    let db = workload.db();
    let cal = db.calibration();
    let mut streams: Vec<StreamState> = Vec::new();
    for s in 0..config.query_streams {
        let name = format!("S{}", s + 1);
        streams.push(StreamState {
            units: query_permutation(config.seed ^ (s as u64).wrapping_mul(0x9E37_79B9))
                .into_iter()
                .map(Unit::Query)
                .collect(),
            next: 0,
            vtime: 0.0,
            result: StreamResult {
                stream: name.clone(),
                units: Vec::new(),
                busy_seconds: 0.0,
                lock_wait_seconds: 0.0,
                finished_at: 0.0,
                latency_us: Histogram::default(),
            },
        });
    }
    let update_units: Vec<Unit> =
        (1..=config.query_streams as u64).flat_map(|p| [Unit::Uf1(p), Unit::Uf2(p)]).collect();
    streams.push(StreamState {
        units: update_units,
        next: 0,
        vtime: 0.0,
        result: StreamResult {
            stream: "UPD".to_string(),
            units: Vec::new(),
            busy_seconds: 0.0,
            lock_wait_seconds: 0.0,
            finished_at: 0.0,
            latency_us: Histogram::default(),
        },
    });

    let mut granted = GrantedLocks::default();
    let mut log = LogDevice::new(config.durability, cal.ms_wal_flush / 1000.0);
    // Pick the most-behind stream with work left (ties: lowest index).
    while let Some(idx) = streams
        .iter()
        .enumerate()
        .filter(|(_, s)| s.next < s.units.len())
        .min_by(|(ai, a), (bi, b)| a.vtime.total_cmp(&b.vtime).then(ai.cmp(bi)))
        .map(|(i, _)| i)
    {
        let stream = &mut streams[idx];
        let unit = &stream.units[stream.next];
        stream.next += 1;

        let (label, claims): (String, Vec<LockClaim>) = match unit {
            Unit::Query(n) => (format!("Q{n}"), workload.query_locks(*n, params)),
            Unit::Uf1(p) => (format!("UF1({p})"), workload.uf1_locks(*p)),
            Unit::Uf2(p) => (format!("UF2({p})"), workload.uf2_locks(*p)),
        };
        let claims: Vec<LockClaim> = match config.lock_model {
            LockModel::Hierarchical => claims,
            LockModel::Table => {
                claims.into_iter().map(|c| LockClaim { req: c.req.table_granular(), ..c }).collect()
            }
        };

        let mut lock_wait = granted.grant_time(&claims, stream.vtime) - stream.vtime;
        if lock_wait > 0.0 {
            db.meter().bump(Counter::LockWaits);
        }

        // Run the unit, rolling back and retrying (with exponential
        // backoff, charged as lock wait) if it is picked as a deadlock
        // victim. Work wasted in aborted attempts stays in the unit's
        // metered cost.
        let before = db.snapshot();
        let mut retries = 0u32;
        let rows = loop {
            let attempt = match unit {
                Unit::Query(n) => workload.run_query(*n, params),
                Unit::Uf1(p) => workload.run_uf1(*p),
                Unit::Uf2(p) => workload.run_uf2(*p),
            };
            match attempt {
                Ok(rows) => break rows,
                Err(DbError::Deadlock(_)) if retries < MAX_DEADLOCK_RETRIES => {
                    db.meter().bump(Counter::DeadlockRetries);
                    lock_wait += DEADLOCK_BACKOFF_S * f64::from(1u32 << retries);
                    retries += 1;
                }
                Err(e) => return Err(e),
            }
        };
        let work = db.snapshot().since(&before);
        let seconds = cal.seconds(&work);
        let start = stream.vtime + lock_wait;
        let mut end = start + seconds;
        // The unit's commits visit the virtual log device; the stream is
        // not done until its last commit is durable.
        let mut commit_wait = 0.0;
        if let Unit::Uf1(p) | Unit::Uf2(p) = unit {
            let durable = log.commit_n(end, workload.uf_commits(*p));
            commit_wait = durable - end;
            end = durable;
        }
        granted.hold(&claims, end);

        stream.result.units.push(UnitResult {
            unit: label,
            start,
            lock_wait,
            seconds,
            commit_wait,
            rows,
            retries,
            work,
        });
        stream.result.busy_seconds += seconds;
        stream.result.lock_wait_seconds += lock_wait;
        stream.result.latency_us.record(((lock_wait + seconds + commit_wait) * 1e6) as u64);
        stream.vtime = end;
        stream.result.finished_at = end;
    }

    let elapsed = streams.iter().map(|s| s.result.finished_at).fold(0.0, f64::max);
    let s = config.query_streams as f64;
    let qthd = if elapsed > 0.0 { s * 17.0 * 3600.0 / elapsed * sf } else { 0.0 };
    Ok(ThroughputResult {
        configuration: workload.name(),
        sf,
        query_streams: config.query_streams,
        lock_model: config.lock_model.as_str().to_string(),
        durability: config.durability.as_str().to_string(),
        commits: log.commits,
        wal_flushes: log.flushes,
        elapsed_seconds: elapsed,
        qthd,
        streams: streams.into_iter().map(|s| s.result).collect(),
    })
}

/// The isolated-RDBMS configuration: queries through plain SQL (literals
/// visible to the optimizer), update functions as engine transactions.
pub struct IsolatedWorkload<'a> {
    pub db: &'a Database,
    pub gen: &'a DbGen,
}

impl StreamWorkload for IsolatedWorkload<'_> {
    fn name(&self) -> String {
        "isolated RDBMS".to_string()
    }

    fn db(&self) -> &Database {
        self.db
    }

    fn run_query(&self, n: usize, params: &QueryParams) -> DbResult<u64> {
        Ok(crate::power::run_query(self.db, n, params)?.rows.len() as u64)
    }

    fn run_uf1(&self, stream: u64) -> DbResult<u64> {
        crate::updates::uf1(self.db, self.gen, stream)
    }

    fn run_uf2(&self, stream: u64) -> DbResult<u64> {
        crate::updates::uf2(self.db, self.gen, stream)
    }

    fn query_locks(&self, n: usize, params: &QueryParams) -> Vec<LockClaim> {
        query_lock_claims(self.db, n, params)
    }

    fn uf1_locks(&self, stream: u64) -> Vec<LockClaim> {
        update_stream_claims(self.gen, stream, true)
    }

    fn uf2_locks(&self, stream: u64) -> Vec<LockClaim> {
        update_stream_claims(self.gen, stream, false)
    }
}

/// The isolated-RDBMS configuration through the wire protocol's extended
/// path: every SELECT goes through a shared [`PlanCache`] (Parse once,
/// REOPEN thereafter) and executes via [`rdbms::Txn::execute_prepared`],
/// so selective predicates plan as index probes and claim row locks
/// instead of the table S a literal full scan takes. Q15's CREATE/DROP
/// VIEW statements stay literal — DDL has no prepared path — and its
/// per-execution view churn exercises the cache's per-object
/// invalidation.
pub struct ExtendedIsolatedWorkload<'a> {
    pub db: &'a Database,
    pub gen: &'a DbGen,
    pub cache: PlanCache,
}

impl<'a> ExtendedIsolatedWorkload<'a> {
    pub fn new(db: &'a Database, gen: &'a DbGen) -> Self {
        ExtendedIsolatedWorkload { db, gen, cache: PlanCache::new(256) }
    }
}

impl StreamWorkload for ExtendedIsolatedWorkload<'_> {
    fn name(&self) -> String {
        "isolated RDBMS (extended protocol)".to_string()
    }

    fn db(&self) -> &Database {
        self.db
    }

    fn run_query(&self, n: usize, params: &QueryParams) -> DbResult<u64> {
        let mut rows = 0u64;
        for stmt in queries::sql(n, params) {
            match parse_statement(&stmt)? {
                Statement::Select(q) => {
                    let cached = self.cache.prepare_select(self.db, &q)?;
                    let mut txn = self.db.begin();
                    let res = txn.execute_prepared(&cached.prepared, &cached.extracted_params)?;
                    txn.commit()?;
                    rows = res.rows.len() as u64;
                }
                _ => {
                    self.db.execute(&stmt)?;
                }
            }
        }
        Ok(rows)
    }

    fn run_uf1(&self, stream: u64) -> DbResult<u64> {
        crate::updates::uf1(self.db, self.gen, stream)
    }

    fn run_uf2(&self, stream: u64) -> DbResult<u64> {
        crate::updates::uf2(self.db, self.gen, stream)
    }

    fn query_locks(&self, n: usize, params: &QueryParams) -> Vec<LockClaim> {
        query_lock_claims_extended(self.db, n, params)
    }

    fn uf1_locks(&self, stream: u64) -> Vec<LockClaim> {
        update_stream_claims(self.gen, stream, true)
    }

    fn uf2_locks(&self, stream: u64) -> Vec<LockClaim> {
        update_stream_claims(self.gen, stream, false)
    }
}

/// Union of base tables referenced by every statement of query `n`
/// (derived from the SQL text itself, so it stays correct as queries
/// change).
pub fn query_read_set(db: &Database, n: usize, params: &QueryParams) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for stmt in queries::sql(n, params) {
        if let Ok(parsed) = parse_statement(&stmt) {
            let (reads, writes) = referenced_tables(&parsed, db.catalog());
            out.extend(reads);
            out.extend(writes);
        }
    }
    out
}

/// Lock claims for query `n` under the engine's literal-SQL locking rules:
/// exactly the read locks [`select_read_locks`] plans for each SELECT —
/// table S where the plan scans, row locks where every access is
/// index-driven.
pub fn query_lock_claims(db: &Database, n: usize, params: &QueryParams) -> Vec<LockClaim> {
    statement_claims(db, n, params, SelectStmt::clone)
}

/// Lock claims for query `n` when executed through the extended protocol:
/// each SELECT is normalized ([`rdbms::sql::ast::SelectStmt::parameterized`])
/// before planning, matching what [`ExtendedIsolatedWorkload::run_query`]
/// actually executes — parameter markers are sargable, so selective
/// predicates claim row probes instead of table scans.
pub fn query_lock_claims_extended(db: &Database, n: usize, params: &QueryParams) -> Vec<LockClaim> {
    statement_claims(db, n, params, SelectStmt::parameterized)
}

/// The read-lock plans of every statement of query `n` as claims: each
/// SELECT, after `normalize`, planned the way a transaction plans it. A
/// statement the engine cannot plan — Q15's `CREATE VIEW`, and its SELECT
/// while the view does not exist yet — claims table S on every table it
/// names.
fn statement_claims(
    db: &Database,
    n: usize,
    params: &QueryParams,
    normalize: impl Fn(&SelectStmt) -> SelectStmt,
) -> Vec<LockClaim> {
    let mut claims = Vec::new();
    for stmt in queries::sql(n, params) {
        let Ok(parsed) = parse_statement(&stmt) else { continue };
        let planned = match &parsed {
            Statement::Select(q) => db.plan_select(&normalize(q)).ok(),
            _ => None,
        };
        let plans = match planned {
            Some(pq) => select_read_locks(&pq),
            None => {
                let (reads, writes) = referenced_tables(&parsed, db.catalog());
                reads.into_iter().chain(writes).map(|t| (t, ReadLockPlan::Table)).collect()
            }
        };
        for (table, locks) in plans {
            let reqs = match locks {
                ReadLockPlan::Table => vec![LockRequest::Table(LockMode::Shared)],
                ReadLockPlan::Rows(rows) => rows.into_iter().map(LockRequest::Row).collect(),
                // Claims are taken before a statement is bound: the
                // existing-row lock over every key stands in for the key
                // range the engine binds (not modelled, so the pinned
                // schedules keep their claims).
                ReadLockPlan::PkParams(_) => {
                    vec![LockRequest::Row(RowLock::shared_existing(KeyRange::all()))]
                }
            };
            claims.extend(reqs.into_iter().map(|req| LockClaim { table: table.clone(), req }));
        }
    }
    claims
}

/// Key-range claims of one refresh function: X on the stream's orderkey
/// block in ORDERS and LINEITEM. RF1 inserts fresh keys
/// ([`RowLock::insert`]), RF2 deletes the same block once it exists
/// ([`RowLock::exclusive`]).
pub fn update_stream_claims(gen: &DbGen, stream: u64, fresh: bool) -> Vec<LockClaim> {
    let req = LockRequest::Row(update_stream_lock(gen, stream, fresh));
    ["ORDERS", "LINEITEM"]
        .iter()
        .map(|t| LockClaim { table: t.to_string(), req: req.clone() })
        .collect()
}

/// X on the orderkey block `gen.update_stream(stream)` inserts (`fresh`)
/// or deletes.
pub fn update_stream_lock(gen: &DbGen, stream: u64, fresh: bool) -> RowLock {
    let (orders, _) = gen.update_stream(stream);
    // The key encoding preserves order, so min/max are the block's bounds.
    let keys = || orders.iter().map(|o| encode_key(&[Value::Int(o.orderkey)]));
    let range = KeyRange::span(keys().min().as_deref(), keys().max().as_deref());
    if fresh {
        RowLock::insert(range)
    } else {
        RowLock::exclusive(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::load;
    use std::cell::Cell;

    fn fresh(sf: f64) -> (Database, DbGen) {
        let db = Database::with_defaults();
        let gen = DbGen::new(sf);
        load(&db, &gen).unwrap();
        (db, gen)
    }

    #[test]
    fn permutations_are_seeded_and_complete() {
        let a = query_permutation(7);
        let b = query_permutation(7);
        let c = query_permutation(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=17).collect::<Vec<_>>());
    }

    #[test]
    fn query_read_sets_name_base_tables() {
        let (db, gen) = fresh(0.001);
        let params = QueryParams::for_scale(gen.sf);
        let q1 = query_read_set(&db, 1, &params);
        assert!(q1.contains("LINEITEM"), "Q1 reads lineitem: {q1:?}");
        let q5 = query_read_set(&db, 5, &params);
        for t in ["CUSTOMER", "ORDERS", "LINEITEM", "SUPPLIER", "NATION", "REGION"] {
            assert!(q5.contains(t), "Q5 reads {t}: {q5:?}");
        }
    }

    #[test]
    fn literal_query_claims_use_planner_granularity() {
        let (db, gen) = fresh(0.002);
        let params = QueryParams::for_scale(gen.sf);
        // Q1 scans LINEITEM with literal predicates: table S.
        let q1 = query_lock_claims(&db, 1, &params);
        assert!(
            q1.iter()
                .any(|c| c.table == "LINEITEM" && c.req == LockRequest::Table(LockMode::Shared)),
            "Q1: {q1:?}"
        );
        // Q15's view body is not a SELECT the engine can plan before the
        // view exists; its base table falls back to table S.
        let q15 = query_lock_claims(&db, 15, &params);
        assert!(
            q15.iter()
                .any(|c| c.table == "LINEITEM" && c.req == LockRequest::Table(LockMode::Shared)),
            "Q15: {q15:?}"
        );
        // The refresh claims are key-ranged and per-stream disjoint.
        let uf1 = update_stream_claims(&gen, 1, true);
        let uf1b = update_stream_claims(&gen, 2, true);
        assert_eq!(uf1.len(), 2);
        for (a, b) in uf1.iter().zip(&uf1b) {
            assert!(!a.req.conflicts(&b.req), "streams must not collide: {a:?} {b:?}");
        }
    }

    #[test]
    fn log_device_batches_group_commits_but_not_fsyncs() {
        // Four commits close together: per-commit fsync serializes four
        // flushes; group commit needs two (leader, then one shared
        // follower batch).
        let f = 0.0055;
        let mut fsync = LogDevice::new(CommitPolicy::FsyncPerCommit, f);
        let mut group = LogDevice::new(CommitPolicy::GroupCommit, f);
        let arrivals = [0.0, 0.001, 0.002, 0.003];
        let fsync_done: Vec<f64> = arrivals.iter().map(|&t| fsync.commit(t)).collect();
        let group_done: Vec<f64> = arrivals.iter().map(|&t| group.commit(t)).collect();
        assert_eq!(fsync.flushes, 4);
        assert_eq!(fsync.commits, 4);
        assert!((fsync_done[3] - 4.0 * f).abs() < 1e-12, "serialized: {fsync_done:?}");
        assert_eq!(group.flushes, 2, "leader flush + one follower batch");
        assert_eq!(group.commits, 4);
        assert!((group_done[1] - 2.0 * f).abs() < 1e-12);
        assert_eq!(group_done[2], group_done[1], "commit 3 joins the follower batch");
        assert_eq!(group_done[3], group_done[1], "commit 4 joins the follower batch");
        // A lone committer gets no batching: group commit == fsync.
        let mut lone = LogDevice::new(CommitPolicy::GroupCommit, f);
        assert!((lone.commit_n(0.0, 3) - 3.0 * f).abs() < 1e-12);
        assert_eq!(lone.flushes, 3);
        // No fsync charges nothing and schedules nothing.
        let mut off = LogDevice::new(CommitPolicy::NoFsync, f);
        assert_eq!(off.commit(1.5).to_bits(), 1.5f64.to_bits());
        assert_eq!(off.flushes, 0);
        assert_eq!(off.commits, 0);
    }

    /// The virtual device and the engine's WAL are two implementations of
    /// one commit policy: for one committer issuing `n` commits in turn,
    /// the device's flushes/commits are the WAL's metered
    /// `WalFlushes`/`GroupCommitBatch`.
    #[test]
    fn log_device_agrees_with_the_wal_for_one_committer() {
        use rdbms::{DbConfig, WalConfig};
        let n = 5u64;
        for (policy, expected) in [
            (CommitPolicy::NoFsync, 0),
            (CommitPolicy::FsyncPerCommit, n),
            (CommitPolicy::GroupCommit, n),
        ] {
            let mut device = LogDevice::new(policy, 0.0055);
            device.commit_n(0.0, n);

            let path = std::env::temp_dir().join(format!(
                "tpcd-log-device-{}-{}",
                policy.as_str(),
                std::process::id()
            ));
            let wal = WalConfig::new(&path).with_policy(policy);
            let db = Database::open(DbConfig { wal: Some(wal), ..DbConfig::default() }).unwrap();
            db.execute("CREATE TABLE t (k INT)").unwrap();
            let before = db.snapshot();
            for k in 0..n {
                db.execute(&format!("INSERT INTO t VALUES ({k})")).unwrap();
            }
            let wal = db.snapshot().since(&before);
            std::fs::remove_file(&path).ok();

            let label = policy.as_str();
            assert_eq!((device.flushes, device.commits), (expected, expected), "{label}");
            assert_eq!(wal.get(Counter::WalFlushes), device.flushes, "{label}");
            assert_eq!(wal.get(Counter::GroupCommitBatch), device.commits, "{label}");
        }
    }

    #[test]
    fn commit_policy_charges_only_update_commits() {
        let run = |durability| {
            let (db, gen) = fresh(0.002);
            let params = QueryParams::for_scale(gen.sf);
            let workload = IsolatedWorkload { db: &db, gen: &gen };
            let config =
                ThroughputConfig { query_streams: 2, seed: 7, durability, ..Default::default() };
            run_throughput_test(&workload, &params, gen.sf, &config).unwrap()
        };
        let off = run(CommitPolicy::NoFsync);
        let fsync = run(CommitPolicy::FsyncPerCommit);
        assert_eq!(off.durability, "no_fsync");
        assert_eq!(off.commits, 0);
        assert_eq!(off.wal_flushes, 0);
        assert_eq!(fsync.durability, "fsync_per_commit");
        // One transaction per refresh function: 2 UF1/UF2 pairs = 4 commits.
        assert_eq!(fsync.commits, 4);
        assert_eq!(fsync.wal_flushes, 4, "per-commit fsync never batches");
        // Only UPD units pay; every query unit's commit wait is zero.
        for s in &fsync.streams {
            for u in &s.units {
                if s.stream == "UPD" {
                    assert!(u.commit_wait > 0.0, "UF must wait for its fsync: {u:?}");
                } else {
                    assert_eq!(u.commit_wait, 0.0, "queries do not commit: {u:?}");
                }
            }
        }
        let off_upd = off.stream("UPD").unwrap();
        let fsync_upd = fsync.stream("UPD").unwrap();
        assert!(fsync_upd.finished_at > off_upd.finished_at);
        assert!(fsync.qthd <= off.qthd, "durability cannot raise QthD");
    }

    #[test]
    fn throughput_test_runs_and_is_deterministic() {
        let config = ThroughputConfig { query_streams: 2, seed: 7, ..Default::default() };
        let run = |_| {
            let (db, gen) = fresh(0.002);
            let params = QueryParams::for_scale(gen.sf);
            let workload = IsolatedWorkload { db: &db, gen: &gen };
            run_throughput_test(&workload, &params, gen.sf, &config).unwrap()
        };
        let a = run(0);
        let b = run(1);
        assert_eq!(a.streams.len(), 3, "2 query streams + 1 update stream");
        assert_eq!(a.stream("UPD").unwrap().units.len(), 4, "2 UF1/UF2 pairs");
        for s in &a.streams {
            if s.stream != "UPD" {
                assert_eq!(s.units.len(), 17);
            }
        }
        assert!(a.elapsed_seconds > 0.0);
        assert!(a.qthd > 0.0);
        assert_eq!(a.lock_model, "hierarchical");
        for s in &a.streams {
            assert_eq!(s.latency_us.count(), s.units.len() as u64);
            assert!(s.latency_us.p99() >= s.latency_us.p50());
        }
        // Determinism: identical simulated timings, work, and row counts.
        assert_eq!(a.elapsed_seconds.to_bits(), b.elapsed_seconds.to_bits());
        assert_eq!(a.qthd.to_bits(), b.qthd.to_bits());
        for (x, y) in a.streams.iter().zip(&b.streams) {
            assert_eq!(x.lock_wait_seconds.to_bits(), y.lock_wait_seconds.to_bits());
            for (ux, uy) in x.units.iter().zip(&y.units) {
                assert_eq!(ux.unit, uy.unit);
                assert_eq!(ux.rows, uy.rows);
                assert_eq!(ux.work, uy.work);
            }
        }
    }

    #[test]
    fn update_stream_leaves_database_unchanged_and_waits_are_attributed() {
        let (db, gen) = fresh(0.002);
        let params = QueryParams::for_scale(gen.sf);
        let before: i64 =
            db.query("SELECT COUNT(*) FROM orders").unwrap().scalar().unwrap().as_int().unwrap();
        let workload = IsolatedWorkload { db: &db, gen: &gen };
        let config = ThroughputConfig { query_streams: 2, seed: 3, ..Default::default() };
        let result = run_throughput_test(&workload, &params, gen.sf, &config).unwrap();
        let after: i64 =
            db.query("SELECT COUNT(*) FROM orders").unwrap().scalar().unwrap().as_int().unwrap();
        assert_eq!(before, after, "each UF1 is paired with a UF2");
        // Literal plans scan ORDERS/LINEITEM at this scale, so the query
        // streams' table-S claims still serialize against the refresh
        // functions' key-range X claims: somebody must have waited.
        assert!(result.total_lock_wait() > 0.0, "lock interference modeled");
        assert!(db.snapshot().lock_waits() > 0, "waits are metered on the global meter");
    }

    /// Delegates to [`IsolatedWorkload`] but claims prepared-cursor probes
    /// for every query read — the claim shape of the SAP configurations —
    /// and optionally fails UF1 with a deadlock a fixed number of times.
    struct ProbeReader<'a> {
        inner: IsolatedWorkload<'a>,
        uf1_deadlocks: Cell<u32>,
    }

    impl StreamWorkload for ProbeReader<'_> {
        fn name(&self) -> String {
            "probe reader".to_string()
        }
        fn db(&self) -> &Database {
            self.inner.db
        }
        fn run_query(&self, n: usize, params: &QueryParams) -> DbResult<u64> {
            self.inner.run_query(n, params)
        }
        fn run_uf1(&self, stream: u64) -> DbResult<u64> {
            if self.uf1_deadlocks.get() > 0 {
                self.uf1_deadlocks.set(self.uf1_deadlocks.get() - 1);
                return Err(DbError::Deadlock("induced victim".to_string()));
            }
            self.inner.run_uf1(stream)
        }
        fn run_uf2(&self, stream: u64) -> DbResult<u64> {
            self.inner.run_uf2(stream)
        }
        fn query_locks(&self, n: usize, params: &QueryParams) -> Vec<LockClaim> {
            query_read_set(self.inner.db, n, params)
                .into_iter()
                .map(|table| LockClaim {
                    table,
                    req: LockRequest::Row(RowLock::shared_existing(KeyRange::all())),
                })
                .collect()
        }
        fn uf1_locks(&self, stream: u64) -> Vec<LockClaim> {
            self.inner.uf1_locks(stream)
        }
        fn uf2_locks(&self, stream: u64) -> Vec<LockClaim> {
            self.inner.uf2_locks(stream)
        }
    }

    #[test]
    fn hierarchical_model_lets_rf1_slip_past_probe_readers() {
        // The claim shapes behind the schedule: a probe read lets RF1's
        // fresh-key insert through but not RF2's delete of the same block.
        let probe = LockRequest::Row(RowLock::shared_existing(KeyRange::all()));
        let gen = DbGen::new(0.002);
        for (rf1, rf2) in
            update_stream_claims(&gen, 1, true).iter().zip(&update_stream_claims(&gen, 1, false))
        {
            assert!(!probe.conflicts(&rf1.req), "RF1 {rf1:?}");
            assert!(probe.conflicts(&rf2.req), "RF2 {rf2:?}");
            assert!(probe.table_granular().conflicts(&rf1.req.table_granular()));
        }
        let run = |model: LockModel| {
            let (db, gen) = fresh(0.002);
            let params = QueryParams::for_scale(gen.sf);
            let workload = ProbeReader {
                inner: IsolatedWorkload { db: &db, gen: &gen },
                uf1_deadlocks: Cell::new(0),
            };
            let config = ThroughputConfig {
                query_streams: 2,
                seed: 7,
                lock_model: model,
                ..Default::default()
            };
            run_throughput_test(&workload, &params, gen.sf, &config).unwrap()
        };
        let table = run(LockModel::Table);
        let hier = run(LockModel::Hierarchical);
        let table_upd = table.stream("UPD").unwrap();
        let hier_upd = hier.stream("UPD").unwrap();
        assert!(
            table_upd.lock_wait_seconds > 0.0,
            "baseline: refresh functions queue behind query table locks"
        );
        // RF1's fresh-key inserts never wait behind probe readers, and the
        // probe readers never wait behind RF1.
        for u in &hier_upd.units {
            if u.unit.starts_with("UF1") {
                assert_eq!(u.lock_wait, 0.0, "RF1 must slip past probe readers: {u:?}");
            }
        }
        assert!(
            hier_upd.lock_wait_seconds < table_upd.lock_wait_seconds,
            "update-stream lock wait must drop: {} vs {}",
            hier_upd.lock_wait_seconds,
            table_upd.lock_wait_seconds
        );
        assert!(hier.qthd >= table.qthd, "QthD must not regress: {} vs {}", hier.qthd, table.qthd);
    }

    #[test]
    fn induced_deadlock_is_retried_not_fatal() {
        let (db, gen) = fresh(0.002);
        let params = QueryParams::for_scale(gen.sf);
        let workload = ProbeReader {
            inner: IsolatedWorkload { db: &db, gen: &gen },
            uf1_deadlocks: Cell::new(2),
        };
        let config = ThroughputConfig { query_streams: 1, seed: 5, ..Default::default() };
        let result = run_throughput_test(&workload, &params, gen.sf, &config).unwrap();
        let upd = result.stream("UPD").unwrap();
        let uf1 = upd.units.iter().find(|u| u.unit.starts_with("UF1")).unwrap();
        assert_eq!(uf1.retries, 2, "both induced deadlocks retried");
        assert!(
            uf1.lock_wait >= DEADLOCK_BACKOFF_S * 3.0,
            "backoff charged as lock wait: {}",
            uf1.lock_wait
        );
        assert_eq!(
            uf1.rows,
            gen.update_stream(1).0.len() as u64 + gen.update_stream(1).1.len() as u64
        );
        assert_eq!(db.snapshot().deadlock_retries(), 2, "retries metered");
    }
}
