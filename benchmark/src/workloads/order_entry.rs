//! `order_entry`: R/3 3.0E behind the dispatcher, two clerk threads posting
//! and deleting order documents through batch input and looking parts up
//! through the table buffer, every document written to the log at commit.
//! The write path beside the read workloads. Ends with a read-back of every
//! acknowledged document, and with a short burst in a second world under
//! group commit with real `fsync` that is crashed (log cut at the durable
//! LSN) and restarted: every single acknowledgement must have been durable.

use super::{
    concurrency_layer_metrics, engine_layer_metrics, is_deadlock, type_median, user_data, Config,
    Counters, Layers, SetupFacts, WindowRun, World, LOG_POLICY, LOG_POLICY_NAME, MAX_RETRIES,
};
use crate::oracle::{fnv1a, OpFacts, Verdict, FNV_OFFSET};
use crate::spans::{spanned, SpanRec, Tracer, ROOT};
use crate::stats::Sample;
use r3::dispatcher::{Dispatcher, DispatcherConfig, WpKind};
use r3::opensql::{Cond, SelectSpec};
use r3::schema::key16;
use r3::{R3System, Release};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbms::storage::{PagerConfig, PAGE_SIZE};
use rdbms::wal::WalConfig;
use rdbms::{CommitPolicy, Counter, Database, DbConfig, DbError, WaitEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcd::records::{LineItem, Order};
use tpcd::DbGen;

/// 750 base orders, 100 parts; fits the default 10 MB pool.
pub const SF: f64 = 0.0005;
pub const CLERKS: usize = 2;
const DIALOG_PROCESSES: usize = 2;

const POST: usize = 0;
const DELETE: usize = 1;
const LOOKUP: usize = 2;
const OP_NAMES: [&str; 3] = ["post_order", "delete_order", "part_lookup"];

/// Orders each clerk posts during warm-up, so a delete always has one of
/// the clerk's own documents to remove.
const WARM_POSTS: usize = 20;
/// Ops each clerk issues in the durability burst (about a second).
const BURST_OPS: usize = 150;

/// Which op a clerk issues next: 40 % post, 40 % delete, 20 % lookup.
fn pick_op(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..100u32) {
        0..=39 => POST,
        40..=79 => DELETE,
        _ => LOOKUP,
    }
}

/// 80 % of lookups go to the first fifth of the part keys.
fn pick_part(rng: &mut StdRng, n_parts: i64) -> i64 {
    let hot = (n_parts / 5).max(1);
    if rng.gen_bool(0.8) {
        rng.gen_range(1..=hot)
    } else {
        rng.gen_range(hot + 1..=n_parts.max(hot + 1))
    }
}

fn clerk_rng(seed: u64, clerk: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (0xC1E4 + clerk as u64))
}

pub fn op_sequence_hash(seed: u64, n: usize) -> u64 {
    let n_parts = DbGen::with_seed(SF, seed).n_parts();
    let mut h = FNV_OFFSET;
    for clerk in 0..CLERKS {
        let mut rng = clerk_rng(seed, clerk);
        for _ in 0..n / CLERKS {
            let ty = pick_op(&mut rng);
            h = fnv1a(h, &[ty as u8]);
            if ty == LOOKUP {
                h = fnv1a(h, &pick_part(&mut rng, n_parts).to_le_bytes());
            }
        }
    }
    h
}

/// One clerk's state, carried from window to window.
struct Clerk {
    id: usize,
    rng: StdRng,
    /// Posts issued so far: picks this clerk's next fresh order key.
    posts: u64,
    /// Own documents currently in the database, oldest first.
    live: Vec<i64>,
    /// Acknowledged outcome per order key: true = posted, false = deleted.
    acked: BTreeMap<i64, bool>,
    /// Keys whose last op failed: their state is unknown, so the
    /// durability check skips them.
    in_doubt: BTreeSet<i64>,
    problems: Vec<String>,
}

pub struct OrderEntry {
    cfg: Config,
    /// Names the world in what its checks report.
    label: &'static str,
    sys: Arc<R3System>,
    dispatcher: Option<Dispatcher>,
    gen: DbGen,
    config: DbConfig,
    wal_path: PathBuf,
    op_types: Vec<String>,
    facts: SetupFacts,
    clerks: Vec<Clerk>,
    next_op: Arc<AtomicU64>,
}

/// Submit a job to a dialog work process and wait for it, retrying when
/// it loses a deadlock. Returns (result, retries).
fn dialog_step(
    dispatcher: &Dispatcher,
    tracer: Option<&Arc<Tracer>>,
    op: u64,
    parent: u32,
    name: &'static str,
    job: impl Fn(&R3System) -> Result<(), DbError> + Send + Sync + 'static,
) -> (Result<(), DbError>, u64) {
    let job = Arc::new(job);
    let mut retries = 0;
    loop {
        let result = spanned(tracer.map(|t| &**t), "submit", op, parent, |submit| {
            let job = Arc::clone(&job);
            let tracer = tracer.cloned();
            dispatcher
                .submit(WpKind::Dialog, name, move |sys| {
                    spanned(tracer.as_deref(), name, op, submit, |_| job(sys))
                })
                .wait()
                .result
        });
        match result {
            Err(e) if is_deadlock(&e) && retries < MAX_RETRIES as u64 => retries += 1,
            other => return (other, retries),
        }
    }
}

impl Clerk {
    fn new(seed: u64, id: usize) -> Clerk {
        Clerk {
            id,
            rng: clerk_rng(seed, id),
            posts: 0,
            live: Vec::new(),
            acked: BTreeMap::new(),
            in_doubt: BTreeSet::new(),
            problems: Vec::new(),
        }
    }

    /// This clerk's next fresh order: refresh stream `seq` holds exactly
    /// one order at this scale factor, keyed above the base population.
    fn next_order(&mut self, gen: &DbGen) -> (Order, Vec<LineItem>) {
        let seq = 1 + self.posts * CLERKS as u64 + self.id as u64;
        self.posts += 1;
        let (mut orders, lineitems) = gen.update_stream(seq);
        (orders.swap_remove(0), lineitems)
    }

    /// Issue one op; returns (sample, retries).
    fn step(
        &mut self,
        world: &Shared,
        tracer: Option<&Arc<Tracer>>,
        forced: Option<usize>,
    ) -> (Sample, u64) {
        let mut ty = forced.unwrap_or_else(|| pick_op(&mut self.rng));
        if ty == DELETE && self.live.is_empty() {
            ty = POST;
        }
        let op = world.next_op.fetch_add(1, Ordering::Relaxed);
        // The dialog step to run, and the document whose fate it decides.
        type Job = Box<dyn Fn(&R3System) -> Result<(), DbError> + Send + Sync>;
        let (name, job, document): (&'static str, Job, Option<(i64, bool)>) = match ty {
            POST => {
                let (order, items) = self.next_order(world.gen);
                let key = order.orderkey;
                let job = move |sys: &R3System| {
                    sys.batch_input_order(&order, &items.iter().collect::<Vec<_>>())
                };
                ("batch_input_order", Box::new(job), Some((key, true)))
            }
            DELETE => {
                let key = self.live.remove(0);
                (
                    "batch_delete_order",
                    Box::new(move |sys: &R3System| sys.batch_delete_order(key)),
                    Some((key, false)),
                )
            }
            _ => {
                let part = pick_part(&mut self.rng, world.gen.n_parts());
                let job = move |sys: &R3System| {
                    let spec = SelectSpec::from_table("MARA")
                        .cond(Cond::eq("MATNR", key16(part)))
                        .single();
                    // MATNR is the second column, after MANDT.
                    match sys.open_select(&spec)?.rows.first() {
                        Some(row) if row[1] == key16(part) => Ok(()),
                        _ => Err(DbError::execution(format!("part {part} not found in MARA"))),
                    }
                };
                ("select_single", Box::new(job), None)
            }
        };
        let started = Instant::now();
        let (result, retries) = spanned(tracer.map(|t| &**t), "op", op, ROOT, |span| {
            dialog_step(world.dispatcher, tracer, op, span, name, job)
        });
        let ns = started.elapsed().as_nanos() as u64;
        if let Some((key, posted)) = document {
            self.settle(key, posted, &result);
        }
        if let Err(e) = &result {
            // Losing every retry is a failed op; anything else is wrong.
            if !is_deadlock(e) {
                self.problems.push(format!("order_entry/{}: {e}", OP_NAMES[ty]));
            }
        }
        (Sample { ty: ty as u16, ns, failed: result.is_err() }, retries)
    }

    fn settle(&mut self, key: i64, posted: bool, result: &Result<(), DbError>) {
        match result {
            Ok(()) => {
                self.acked.insert(key, posted);
                self.in_doubt.remove(&key);
                if posted {
                    self.live.push(key);
                }
            }
            Err(_) => {
                self.in_doubt.insert(key);
            }
        }
    }
}

/// What the clerk threads share.
struct Shared<'a> {
    dispatcher: &'a Dispatcher,
    gen: &'a DbGen,
    next_op: &'a AtomicU64,
}

impl OrderEntry {
    pub fn setup(cfg: &Config) -> OrderEntry {
        Self::build(cfg, "order_entry", LOG_POLICY)
    }

    fn build(cfg: &Config, label: &'static str, policy: CommitPolicy) -> OrderEntry {
        let gen = DbGen::with_seed(SF, cfg.seed);
        let wal_path = cfg.scratch.join(label).with_extension("wal");
        let started = Instant::now();
        let config = DbConfig {
            wal: Some(WalConfig::new(&wal_path).with_policy(policy)),
            ..DbConfig::default()
        };
        let sys = R3System::install(Release::R30, config.clone()).expect("R/3 install");
        sys.load_tpcd(&gen).expect("SAP load");
        if policy != CommitPolicy::NoFsync {
            sys.db.wal_flush().expect("log force after load");
        }
        let sys = Arc::new(sys);
        let dispatcher = Dispatcher::start(
            Arc::clone(&sys),
            DispatcherConfig { dialog_processes: DIALOG_PROCESSES, batch_processes: 0 },
        );
        let load_seconds = started.elapsed().as_secs_f64();

        let (user_bytes, rows_loaded, dbgen_ms) = user_data(&gen);
        let stored = sys.db.pager().allocated_pages() * PAGE_SIZE;
        OrderEntry {
            facts: SetupFacts {
                sf: SF,
                pool_bytes: PagerConfig::default().pool_pages * PAGE_SIZE,
                flush_policy: LOG_POLICY_NAME,
                clients: CLERKS,
                stored_bytes_per_user_byte: stored as f64 / user_bytes as f64,
                rows_loaded,
                setup_seconds: load_seconds,
                dbgen_ms,
            },
            cfg: cfg.clone(),
            label,
            sys,
            dispatcher: Some(dispatcher),
            gen,
            config,
            wal_path,
            op_types: OP_NAMES.iter().map(|s| s.to_string()).collect(),
            clerks: (0..CLERKS).map(|id| Clerk::new(cfg.seed, id)).collect(),
            next_op: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Buffer MARA at three quarters of its size: read every part once to
    /// learn what the whole table occupies in the buffer, then cut the
    /// capacity. (Not half: the consistency checks of every post probe the
    /// same buffer with uniform part keys, eight times as often as the
    /// lookups do, so at half the lookups hit every other time and their
    /// median fell on the slope between a hit, 35 us, and a miss, 100 us.)
    fn size_part_buffer(&self) {
        self.sys.buffer.enable("MARA");
        self.sys.buffer.set_capacity_bytes(usize::MAX);
        for part in 1..=self.gen.n_parts() {
            let spec = SelectSpec::from_table("MARA").cond(Cond::eq("MATNR", key16(part))).single();
            self.sys.open_select(&spec).expect("MARA read");
        }
        self.sys.buffer.set_capacity_bytes(self.sys.buffer.used_bytes() / 4 * 3);
    }

    fn run_clerks(
        &mut self,
        tracer: Option<&Arc<Tracer>>,
        next: &(impl Fn(usize) -> Option<Option<usize>> + Sync),
    ) -> (Vec<Sample>, u64) {
        let shared = Shared {
            dispatcher: self.dispatcher.as_ref().expect("dispatcher runs until finish"),
            gen: &self.gen,
            next_op: &self.next_op,
        };
        let shared = &shared;
        let per_clerk: Vec<(Vec<Sample>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clerks
                .iter_mut()
                .map(|clerk| {
                    scope.spawn(move || {
                        let (mut samples, mut retries) = (Vec::new(), 0);
                        while let Some(forced) = next(samples.len()) {
                            let (sample, r) = clerk.step(shared, tracer, forced);
                            samples.push(sample);
                            retries += r;
                        }
                        (samples, retries)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("clerk thread panicked")).collect()
        });
        let retries = per_clerk.iter().map(|(_, r)| r).sum();
        (per_clerk.into_iter().flat_map(|(s, _)| s).collect(), retries)
    }
}

impl World for OrderEntry {
    fn op_types(&self) -> &[String] {
        &self.op_types
    }

    fn facts(&self) -> &SetupFacts {
        &self.facts
    }

    fn warm_up(&mut self) {
        self.size_part_buffer();
        // The first post also creates the number-range table.
        self.run_clerks(None, &|done| (done < WARM_POSTS).then_some(Some(POST)));
    }

    fn round0(&self) -> BTreeMap<String, OpFacts> {
        BTreeMap::new()
    }

    fn run_window(&mut self, window: Duration, tracer: Option<&Arc<Tracer>>) -> WindowRun {
        let before = Counters::of(&self.sys.db);
        let started = Instant::now();
        let deadline = started + window;
        let (samples, retries) =
            self.run_clerks(tracer, &|_| (Instant::now() < deadline).then_some(None));
        let seconds = started.elapsed().as_secs_f64();
        let counters = Counters::of(&self.sys.db).since(&before);
        WindowRun {
            seconds,
            basis: counters,
            basis_ops: samples.len() as u64,
            counters,
            samples,
            retries,
            ..WindowRun::default()
        }
    }

    fn layer_metrics(&self, untraced: &WindowRun, _spans: &[SpanRec], out: &mut Layers) {
        engine_layer_metrics(untraced, out);
        concurrency_layer_metrics(untraced, out);
        let ops = untraced.ops().max(1) as f64;
        let c = &untraced.counters;
        out.insert("batch_input.check_units_per_op".into(), c.get(Counter::CheckUnits) / ops);
        out.insert("batch_input.crossings_per_op".into(), c.get(Counter::IpcCrossings) / ops);
        if let Some(ms) = type_median(untraced, POST, 1e6) {
            out.insert("batch_input.post_p50_ms".into(), ms);
        }
        if let Some(ms) = type_median(untraced, DELETE, 1e6) {
            out.insert("batch_input.delete_p50_ms".into(), ms);
        }
        if c.get(Counter::CacheProbes) > 0.0 {
            out.insert(
                "buffer.hit_ratio".into(),
                c.get(Counter::CacheHits) / c.get(Counter::CacheProbes),
            );
        }
        let metrics = self.dispatcher.as_ref().expect("dispatcher runs until finish").metrics();
        out.insert(
            "dispatcher.queue_wait_p50_us".into(),
            metrics.dialog.queue_wait_us.p50() as f64,
        );
        out.insert("dispatcher.service_p50_us".into(), metrics.dialog.service_us.p50() as f64);
    }

    fn finish(mut self: Box<Self>, layers: &mut Layers) -> Verdict {
        let mut verdict = Verdict::default();
        self.stop(&mut verdict);
        // The measured world: what the clerks were told is what it holds.
        self.check_documents(&self.sys.db, &mut verdict);

        // The durability burst: a second world, under group commit with
        // real fsync. Crash it by keeping only the bytes its commits had
        // forced (a kill leaves the OS cache intact, so the check itself
        // discards the rest), restart from them alone, and require every
        // acknowledged post present and every acknowledged delete absent.
        let mut forced = Self::build(&self.cfg, "order_entry_forced", CommitPolicy::GroupCommit);
        forced.warm_up();
        let before = Counters::of(&forced.sys.db);
        let (samples, _) = forced.run_clerks(None, &|done| (done < BURST_OPS).then_some(None));
        let c = Counters::of(&forced.sys.db).since(&before);
        let op_us = samples.iter().map(|s| s.ns as f64).sum::<f64>() / 1e3;
        layers.insert(
            "wal.flushes_per_commit".into(),
            c.get(Counter::WalFlushes) / c.get(Counter::GroupCommitBatch).max(1.0),
        );
        layers.insert(
            "wal.flush_wait_fraction".into(),
            (c.wait_us(WaitEvent::WalFlush) + c.wait_us(WaitEvent::GroupCommitWait)) / op_us,
        );
        forced.stop(&mut verdict);
        if let Err(e) = forced.crash_and_restart(layers, &mut verdict) {
            verdict.problem(format!("order_entry_forced: {e}"));
        }
        verdict
    }
}

impl OrderEntry {
    /// Stop the work processes and hand over what the clerks found wrong.
    fn stop(&mut self, verdict: &mut Verdict) {
        if let Some(d) = self.dispatcher.take() {
            d.shutdown();
        }
        for clerk in &mut self.clerks {
            clerk.problems.drain(..).for_each(|p| verdict.problem(p));
        }
    }

    /// Every acknowledged post is in `db`, every acknowledged delete gone.
    fn check_documents(&self, db: &Database, verdict: &mut Verdict) {
        let label = self.label;
        let present: BTreeSet<String> = match db.query("SELECT VBELN FROM VBAK") {
            Ok(r) => r.rows.iter().map(|row| row[0].to_string()).collect(),
            Err(e) => return verdict.problem(format!("{label}: read-back of VBAK: {e}")),
        };
        for clerk in &self.clerks {
            for (&key, &posted) in clerk.acked.iter().filter(|(k, _)| !clerk.in_doubt.contains(k)) {
                if present.contains(&format!("{key:016}")) != posted {
                    verdict.problem(format!(
                        "{label}: order {key} was acknowledged as {} but the database says otherwise",
                        if posted { "posted" } else { "deleted" }
                    ));
                }
            }
        }
    }

    /// Cut a copy of the log at the durable LSN, recover from it and check
    /// the documents in what comes back.
    fn crash_and_restart(&self, layers: &mut Layers, verdict: &mut Verdict) -> Result<(), String> {
        let wal = self.sys.db.wal().expect("order_entry runs with a WAL");
        let crashed = self.wal_path.with_extension("recovered.wal");
        let mut bytes = std::fs::read(&self.wal_path).map_err(|e| format!("log copy: {e}"))?;
        bytes.truncate(wal.durable_lsn() as usize);
        std::fs::write(&crashed, &bytes).map_err(|e| format!("log copy: {e}"))?;
        let restart = DbConfig { wal: Some(WalConfig::new(&crashed)), ..self.config.clone() };
        let started = Instant::now();
        let (db, report) = Database::recover(restart).map_err(|e| format!("recovery: {e}"))?;
        let recover_s = started.elapsed().as_secs_f64();
        layers.insert("recovery.recover_s".into(), recover_s);
        layers.insert("recovery.mb_per_s".into(), bytes.len() as f64 / 1e6 / recover_s);
        layers.insert("recovery.records".into(), report.records_scanned as f64);
        self.check_documents(&db, verdict);
        Ok(())
    }
}
