//! `wire_mixed`: the TCP front door with small work per request. Two
//! connections mix prepared and literal point probes, a short range, a
//! small aggregate and a three-message update transaction over data that
//! fits the pool: framing, session, plan cache, parse and short lock holds
//! beside index probes. Not an executor bypass: about half of the op time
//! is inside `Plan::execute` (`exec.fraction`).

use super::{
    concurrency_layer_metrics, engine_layer_metrics, type_median, user_data, Config, Counters,
    Layers, SetupFacts, WindowRun, World, LOG_POLICY, LOG_POLICY_NAME, MAX_RETRIES,
};
use crate::oracle::{fnv1a, OpFacts, Verdict, FNV_OFFSET};
use crate::spans::{spanned, SpanRec, Tracer, ROOT};
use crate::stats::{quantile, sorted, Sample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbms::storage::{PagerConfig, PAGE_SIZE};
use rdbms::wal::WalConfig;
use rdbms::{Counter, Database, DbConfig, Decimal, Value};
use server::protocol::{write_string, write_value};
use server::{Client, ClientError, ClientResult, Rows, Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcd::DbGen;

/// 3 000 orders (~5 MB) in the default 10 MB pool: fits.
pub const SF: f64 = 0.002;
pub const CONNECTIONS: usize = 2;

const PROBE_EXT: usize = 0;
const PROBE_SIMPLE: usize = 1;
const RANGE_EXT: usize = 2;
const AGG_SIMPLE: usize = 3;
const UPDATE_COMMIT: usize = 4;
const OP_NAMES: [&str; 5] =
    ["probe_ext", "probe_simple", "range_ext", "agg_simple", "update_commit"];

const PROBE_SQL: &str =
    "SELECT o_custkey, o_totalprice, o_shippriority FROM orders WHERE o_orderkey = ?";
const RANGE_SQL: &str = "SELECT l_linenumber, l_quantity FROM lineitem WHERE l_orderkey = ?";
/// Frame header: tag + length.
const FRAME: usize = 5;

/// 60 % prepared probe, 10 % each of the rest.
fn pick_op(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..10u32) {
        0..=5 => PROBE_EXT,
        6 => PROBE_SIMPLE,
        7 => RANGE_EXT,
        8 => AGG_SIMPLE,
        _ => UPDATE_COMMIT,
    }
}

/// Reads are 80/20-skewed over all order indexes.
fn pick_read(rng: &mut StdRng, n: usize) -> usize {
    let hot = (n / 5).max(1);
    if rng.gen_bool(0.8) {
        rng.gen_range(0..hot)
    } else {
        rng.gen_range(hot.min(n - 1)..n)
    }
}

/// Writes stay inside the connection's own partition (index mod connections).
fn pick_write(rng: &mut StdRng, n: usize, conn: usize) -> usize {
    let slot = rng.gen_range(0..n / CONNECTIONS);
    slot * CONNECTIONS + conn
}

fn conn_rng(seed: u64, conn: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (0x3172 + conn as u64))
}

pub fn op_sequence_hash(seed: u64, n: usize) -> u64 {
    let n_orders = DbGen::with_seed(SF, seed).n_orders() as usize;
    let mut h = FNV_OFFSET;
    for conn in 0..CONNECTIONS {
        let mut rng = conn_rng(seed, conn);
        for _ in 0..n / CONNECTIONS {
            let ty = pick_op(&mut rng);
            let target = match ty {
                AGG_SIMPLE => rng.gen_range(0..25usize),
                UPDATE_COMMIT => pick_write(&mut rng, n_orders, conn),
                _ => pick_read(&mut rng, n_orders),
            };
            h = fnv1a(fnv1a(h, &[ty as u8]), &target.to_le_bytes());
        }
    }
    h
}

/// What the generator says the server must answer.
struct Truth {
    /// (orderkey, custkey, totalprice, lineitem count) by order index.
    orders: Vec<(i64, i64, Decimal, usize)>,
    /// (customer count, sum of acctbal) by nation key.
    nations: Vec<(i64, Decimal)>,
}

struct Conn {
    id: usize,
    client: Client,
    rng: StdRng,
    /// Last committed o_shippriority per order key this connection wrote.
    written: BTreeMap<i64, i64>,
    next_value: i64,
    problems: Vec<String>,
}

pub struct WireMixed {
    db: Arc<Database>,
    server: Option<Server>,
    truth: Truth,
    op_types: Vec<String>,
    facts: SetupFacts,
    conns: Vec<Conn>,
    next_op: AtomicU64,
}

fn is_retryable(e: &ClientError) -> bool {
    matches!(e, ClientError::Server(s) if s.0.contains("deadlock"))
}

fn wrong(what: impl Into<String>) -> ClientError {
    ClientError::Server(server::ServerError(what.into()))
}

fn string_len(s: &str) -> usize {
    let mut buf = Vec::new();
    write_string(&mut buf, s);
    buf.len()
}

impl Conn {
    /// Bind / Execute / Sync of the probe statement parsed at connect time.
    fn probe(&mut self, t: Option<&Tracer>, op: u64, parent: u32, key: i64) -> ClientResult<Rows> {
        let params = [Value::Int(key)];
        let bound = spanned(t, "bind", op, parent, |_| self.client.bind("", "probe", &params));
        let rows =
            bound.and_then(|()| spanned(t, "execute", op, parent, |_| self.client.execute("")));
        // Always resynchronize, even after an error.
        let synced = spanned(t, "sync", op, parent, |_| self.client.sync());
        let rows = rows?;
        synced?;
        Ok(rows)
    }

    fn simple(
        &mut self,
        t: Option<&Tracer>,
        op: u64,
        parent: u32,
        sql: &str,
    ) -> ClientResult<Rows> {
        spanned(t, "query", op, parent, |_| self.client.simple_query(sql))
    }

    fn check_probe(&self, rows: &Rows, truth: &(i64, i64, Decimal, usize)) -> ClientResult<()> {
        let &(key, custkey, totalprice, _) = truth;
        let [row] = rows.rows.as_slice() else {
            return Err(wrong(format!("probe of order {key} returned {} rows", rows.rows.len())));
        };
        let priority_ok = match self.written.get(&key) {
            Some(&v) => row[2] == Value::Int(v),
            None => true,
        };
        if row[0] == Value::Int(custkey) && row[1] == Value::Decimal(totalprice) && priority_ok {
            Ok(())
        } else {
            Err(wrong(format!("probe of order {key} returned {row:?}")))
        }
    }

    /// One op against the server, checked against the generator. Returns
    /// the request bytes it framed.
    fn call(
        &mut self,
        ty: usize,
        target: usize,
        truth: &Truth,
        t: Option<&Tracer>,
        op: u64,
        parent: u32,
    ) -> ClientResult<usize> {
        let order = truth.orders[target.min(truth.orders.len() - 1)];
        let key = order.0;
        let ext_bytes = |stmt: &str| {
            let mut value = Vec::new();
            write_value(&mut value, &Value::Int(key));
            (FRAME + string_len("") + string_len(stmt) + 2 + value.len())
                + (FRAME + string_len(""))
                + FRAME
        };
        match ty {
            PROBE_EXT => {
                let rows = self.probe(t, op, parent, key)?;
                self.check_probe(&rows, &order)?;
                Ok(ext_bytes("probe"))
            }
            PROBE_SIMPLE => {
                let sql = PROBE_SQL.replace('?', &key.to_string());
                let rows = self.simple(t, op, parent, &sql)?;
                self.check_probe(&rows, &order)?;
                Ok(FRAME + sql.len())
            }
            RANGE_EXT => {
                // Parse every time: the statement is found in the shared
                // plan cache, the paper's REOPEN.
                let params = [Value::Int(key)];
                let rows = spanned(t, "extended_query", op, parent, |_| {
                    self.client.extended_query(RANGE_SQL, &params)
                })?;
                if rows.rows.len() != order.3 {
                    return Err(wrong(format!(
                        "order {key} has {} lineitems, got {}",
                        order.3,
                        rows.rows.len()
                    )));
                }
                Ok(ext_bytes("") + FRAME + string_len("") + string_len(RANGE_SQL))
            }
            AGG_SIMPLE => {
                let nation = target;
                let sql = format!(
                    "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_nationkey = {nation}"
                );
                let rows = self.simple(t, op, parent, &sql)?;
                let (count, sum) = truth.nations[nation];
                let sum_ok = |v: &Value| match v {
                    Value::Null => count == 0,
                    v => v.as_decimal().is_ok_and(|d| d == sum),
                };
                match rows.rows.as_slice() {
                    [row] if row[0] == Value::Int(count) && sum_ok(&row[1]) => {
                        Ok(FRAME + sql.len())
                    }
                    other => Err(wrong(format!("nation {nation} aggregate returned {other:?}"))),
                }
            }
            _ => {
                let value = self.next_value;
                let sql =
                    format!("UPDATE orders SET o_shippriority = {value} WHERE o_orderkey = {key}");
                self.simple(t, op, parent, "BEGIN")?;
                let updated = self.simple(t, op, parent, &sql)?;
                if updated.tag != "OK 1" {
                    return Err(wrong(format!("update of order {key} answered {:?}", updated.tag)));
                }
                self.simple(t, op, parent, "COMMIT")?;
                self.next_value += 1;
                self.written.insert(key, value);
                Ok(3 * FRAME + "BEGIN".len() + sql.len() + "COMMIT".len())
            }
        }
    }

    /// Issue one op; returns (sample, retries, request bytes).
    fn step(&mut self, truth: &Truth, tracer: Option<&Tracer>, op: u64) -> (Sample, u64, usize) {
        let ty = pick_op(&mut self.rng);
        let n = truth.orders.len();
        let target = match ty {
            AGG_SIMPLE => self.rng.gen_range(0..25usize),
            UPDATE_COMMIT => pick_write(&mut self.rng, n, self.id),
            _ => pick_read(&mut self.rng, n),
        };
        let mut retries = 0;
        let started = Instant::now();
        let result = spanned(tracer, "op", op, ROOT, |span| loop {
            match self.call(ty, target, truth, tracer, op, span) {
                Err(e) if is_retryable(&e) && retries < MAX_RETRIES as u64 => retries += 1,
                other => break other,
            }
        });
        let ns = started.elapsed().as_nanos() as u64;
        if let Err(e) = &result {
            if !is_retryable(e) {
                self.problems.push(format!("wire_mixed/{}: {e}", OP_NAMES[ty]));
            }
        }
        (Sample { ty: ty as u16, ns, failed: result.is_err() }, retries, result.unwrap_or(0))
    }
}

impl WireMixed {
    pub fn setup(cfg: &Config) -> WireMixed {
        let gen = DbGen::with_seed(SF, cfg.seed);
        let started = Instant::now();
        let wal = WalConfig::new(cfg.scratch.join("wire_mixed.wal")).with_policy(LOG_POLICY);
        let db = Arc::new(Database::new(DbConfig { wal: Some(wal), ..DbConfig::default() }));
        tpcd::schema::load(&db, &gen).expect("TPC-D load");
        let server = Server::start(Arc::clone(&db), ServerConfig::default()).expect("server start");
        let conns = (0..CONNECTIONS)
            .map(|id| {
                let mut client = Client::connect(server.local_addr()).expect("connect");
                client.parse("probe", PROBE_SQL).expect("parse probe");
                client.sync().expect("sync");
                Conn {
                    id,
                    client,
                    rng: conn_rng(cfg.seed, id),
                    written: BTreeMap::new(),
                    next_value: 1 + id as i64,
                    problems: Vec::new(),
                }
            })
            .collect();
        let load_seconds = started.elapsed().as_secs_f64();

        let (user_bytes, rows_loaded, dbgen_ms) = user_data(&gen);
        let (orders, lineitems) = gen.orders_and_lineitems();
        let mut item_counts: BTreeMap<i64, usize> = BTreeMap::new();
        for l in &lineitems {
            *item_counts.entry(l.orderkey).or_default() += 1;
        }
        let mut nations = vec![(0i64, Decimal::zero()); 25];
        for c in gen.customers() {
            let n = &mut nations[c.nationkey as usize];
            *n = (n.0 + 1, n.1.add(c.acctbal));
        }
        WireMixed {
            facts: SetupFacts {
                sf: SF,
                pool_bytes: PagerConfig::default().pool_pages * PAGE_SIZE,
                flush_policy: LOG_POLICY_NAME,
                clients: CONNECTIONS,
                stored_bytes_per_user_byte: (db.pager().allocated_pages() * PAGE_SIZE) as f64
                    / user_bytes as f64,
                rows_loaded,
                setup_seconds: load_seconds,
                dbgen_ms,
            },
            truth: Truth {
                orders: orders
                    .iter()
                    .map(|o| {
                        (
                            o.orderkey,
                            o.custkey,
                            o.totalprice,
                            item_counts.get(&o.orderkey).copied().unwrap_or(0),
                        )
                    })
                    .collect(),
                nations,
            },
            db,
            server: Some(server),
            op_types: OP_NAMES.iter().map(|s| s.to_string()).collect(),
            conns,
            next_op: AtomicU64::new(0),
        }
    }

    fn service_us(&self) -> u64 {
        let server = self.server.as_ref().expect("server runs until finish");
        server.latency_histograms().values().map(|h| h.sum()).sum()
    }
}

impl Drop for WireMixed {
    /// `Server` has no `Drop`: a world built only to time its set-up must
    /// still stop its accept and connection threads.
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl World for WireMixed {
    fn op_types(&self) -> &[String] {
        &self.op_types
    }

    fn facts(&self) -> &SetupFacts {
        &self.facts
    }

    fn warm_up(&mut self) {
        self.run_window(Duration::from_millis(500), None);
    }

    fn round0(&self) -> BTreeMap<String, OpFacts> {
        BTreeMap::new()
    }

    fn run_window(&mut self, window: Duration, tracer: Option<&Arc<Tracer>>) -> WindowRun {
        let tracer = tracer.map(|t| &**t);
        let service_before = self.service_us();
        let before = Counters::of(&self.db);
        let started = Instant::now();
        let deadline = started + window;
        let (truth, next_op) = (&self.truth, &self.next_op);
        let per_conn: Vec<(Vec<Sample>, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|conn| {
                    scope.spawn(move || {
                        let (mut samples, mut retries, mut bytes) = (Vec::new(), 0, 0);
                        while Instant::now() < deadline {
                            // Relaxed: the id publishes nothing but itself.
                            let op = next_op.fetch_add(1, Ordering::Relaxed);
                            let (sample, r, b) = conn.step(truth, tracer, op);
                            samples.push(sample);
                            retries += r;
                            bytes += b as u64;
                        }
                        (samples, retries, bytes)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect()
        });
        let seconds = started.elapsed().as_secs_f64();
        let counters = Counters::of(&self.db).since(&before);
        let samples: Vec<Sample> =
            per_conn.iter().flat_map(|(s, _, _)| s.iter().copied()).collect();
        WindowRun {
            seconds,
            basis: counters,
            basis_ops: samples.len() as u64,
            basis_rows: 0,
            counters,
            samples,
            retries: per_conn.iter().map(|(_, r, _)| r).sum(),
            server_service_us: self.service_us() - service_before,
            request_bytes: per_conn.iter().map(|(_, _, b)| b).sum(),
        }
    }

    fn layer_metrics(&self, untraced: &WindowRun, _spans: &[SpanRec], out: &mut Layers) {
        engine_layer_metrics(untraced, out);
        concurrency_layer_metrics(untraced, out);
        let c = &untraced.counters;
        let lookups = c.get(Counter::PlanCacheHits) + c.get(Counter::PlanCacheMisses);
        if lookups > 0.0 {
            out.insert("plancache.hit_ratio".into(), c.get(Counter::PlanCacheHits) / lookups);
            out.insert(
                "plancache.evictions_per_kop".into(),
                c.get(Counter::PlanCacheEvictions) * 1e3 / untraced.ops().max(1) as f64,
            );
        }
        for (ty, metric, unit_ns) in [
            (PROBE_EXT, "wire.probe_ext_p50_us", 1e3),
            (PROBE_SIMPLE, "wire.probe_simple_p50_us", 1e3),
            (RANGE_EXT, "wire.range_ext_p50_us", 1e3),
            (AGG_SIMPLE, "wire.agg_simple_p50_ms", 1e6),
            (UPDATE_COMMIT, "wire.update_commit_p50_ms", 1e6),
        ] {
            if let Some(v) = type_median(untraced, ty, unit_ns) {
                out.insert(metric.into(), v);
            }
        }
        let updates = sorted(
            untraced
                .samples
                .iter()
                .filter(|s| s.ty as usize == UPDATE_COMMIT)
                .map(|s| s.ns as f64 / 1e6)
                .collect(),
        );
        if !updates.is_empty() {
            out.insert("wire.update_commit_p95_ms".into(), quantile(&updates, 0.95));
        }

        // Service time per message type, over the server's whole life.
        let server = self.server.as_ref().expect("server runs until finish");
        let hists = server.latency_histograms();
        for (tag, metric) in [
            (b'P', "server.parse_p50_us"),
            (b'B', "server.bind_p50_us"),
            (b'E', "server.execute_p50_us"),
            (b'Q', "server.query_p50_us"),
        ] {
            if let Some(h) = hists.get(&tag) {
                out.insert(metric.into(), h.p50() as f64);
            }
        }
        let service_s = untraced.server_service_us as f64 / 1e6;
        out.insert("server.wire_overhead_fraction".into(), 1.0 - service_s / untraced.op_seconds());
        out.insert(
            "server.net_bytes_per_op".into(),
            untraced.request_bytes as f64 / untraced.ops().max(1) as f64,
        );
    }

    fn finish(mut self: Box<Self>, _layers: &mut Layers) -> Verdict {
        let mut verdict = Verdict::default();
        // Read back every committed update over a fresh look at the table.
        for conn in &mut self.conns {
            conn.problems.drain(..).for_each(|p| verdict.problem(p));
            for (&key, &value) in &conn.written {
                let sql = format!("SELECT o_shippriority FROM orders WHERE o_orderkey = {key}");
                match conn.client.simple_query(&sql) {
                    Ok(rows) if rows.rows.first().is_some_and(|r| r[0] == Value::Int(value)) => {}
                    Ok(rows) => verdict.problem(format!(
                        "wire_mixed: order {key} committed priority {value}, reads back {:?}",
                        rows.rows
                    )),
                    Err(e) => verdict.problem(format!("wire_mixed: read-back of order {key}: {e}")),
                }
            }
        }
        self.conns.clear();
        let stats = self.server.take().expect("server runs until finish").shutdown();
        if stats.protocol_errors + stats.panics > 0 {
            verdict.problem(format!("wire_mixed: server saw {stats:?}"));
        }
        verdict
    }
}
