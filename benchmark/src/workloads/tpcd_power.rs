//! `tpcd_power`: the isolated RDBMS, one client, rounds of Q1-Q17 + UF1 +
//! UF2 against data five times the buffer pool. The paper's Table 3
//! column in wall clock: almost all time is the executor.

use super::{
    engine_layer_metrics, round_robin_hash, run_rounds, type_median, user_data, Config, Counters,
    Layers, SetupFacts, WindowRun, World,
};
use crate::oracle::{self, hash_rows, OpFacts, Verdict};
use crate::params::population;
use crate::spans::{self, spanned, SpanRec, Tracer, ROOT};
use crate::stats::Sample;
use rdbms::sql::{parse_statement, Statement};
use rdbms::storage::{PagerConfig, PAGE_SIZE};
use rdbms::{Database, DbConfig, DbResult, Row};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcd::{queries, updates, DbGen, QueryParams};

/// 3 000 orders, ~12 000 lineitems, ~630 pages (5 MB).
pub const SF: f64 = 0.002;
/// 128 pages: the data is five times the cache, ~4 800 misses a round.
pub const POOL_BYTES: usize = 1024 * 1024;

const N_QUERIES: usize = 17;
const UF1: usize = 17;
const UF2: usize = 18;

pub fn op_names() -> Vec<String> {
    (1..=N_QUERIES).map(|n| format!("q{n:02}")).chain(["uf1".into(), "uf2".into()]).collect()
}

pub fn op_sequence_hash(seed: u64, n: usize) -> u64 {
    round_robin_hash(&population(SF, seed).0, &op_names(), n)
}

pub struct TpcdPower {
    db: Database,
    gen: DbGen,
    params: QueryParams,
    op_types: Vec<String>,
    facts: SetupFacts,
    /// Orders + lineitems of the refresh stream: what UF1 must insert and
    /// UF2 delete.
    refresh_rows: u64,
    round0: BTreeMap<String, OpFacts>,
    expected: Option<BTreeMap<String, OpFacts>>,
    verdict: Verdict,
    next_op: u64,
}

impl TpcdPower {
    pub fn setup(cfg: &Config) -> TpcdPower {
        let (gen, params) = population(SF, cfg.seed);
        let started = Instant::now();
        let db = Database::new(DbConfig {
            pager: PagerConfig::with_pool_bytes(POOL_BYTES),
            ..DbConfig::default()
        });
        tpcd::schema::load(&db, &gen).expect("TPC-D load");
        let load_seconds = started.elapsed().as_secs_f64();
        let (user_bytes, rows_loaded, dbgen_ms) = user_data(&gen);
        let (orders, lineitems) = gen.update_stream(1);
        TpcdPower {
            facts: SetupFacts {
                sf: SF,
                pool_bytes: POOL_BYTES,
                flush_policy: "wal off",
                clients: 1,
                stored_bytes_per_user_byte: (db.pager().allocated_pages() * PAGE_SIZE) as f64
                    / user_bytes as f64,
                rows_loaded,
                setup_seconds: load_seconds,
                dbgen_ms,
            },
            db,
            params,
            gen,
            op_types: op_names(),
            refresh_rows: (orders.len() + lineitems.len()) as u64,
            round0: BTreeMap::new(),
            expected: oracle::read_expected(cfg.seed, "tpcd_power"),
            verdict: Verdict::default(),
            next_op: 0,
        }
    }

    /// One query, every statement split into the three calls
    /// `Database::execute` makes, each under its own span.
    fn traced_query(&self, t: &Tracer, op: u64, parent: u32, n: usize) -> DbResult<Vec<Row>> {
        let mut last = None;
        for sql in queries::sql(n, &self.params) {
            let stmt = spanned(Some(t), "parse", op, parent, |_| parse_statement(&sql))?;
            match stmt {
                Statement::Select(q) => {
                    let prepared =
                        spanned(Some(t), "plan", op, parent, |_| self.db.prepare_select(&q))?;
                    let open = t.begin("execute", op, parent);
                    let before = self.db.snapshot();
                    let result = self.db.execute_prepared(&prepared, &[]);
                    t.end(open, self.db.snapshot().since(&before).db_tuples());
                    last = Some(result?.rows);
                }
                _ => {
                    spanned(Some(t), "execute", op, parent, |_| self.db.execute(&sql))?;
                }
            }
        }
        Ok(last.expect("every TPC-D query ends in a SELECT"))
    }

    /// Run op `ty`; `Ok(Some(rows))` for a query, `Ok(None)` for a
    /// refresh function that moved exactly the refresh stream's rows.
    fn call(
        &self,
        ty: usize,
        tracer: Option<&Tracer>,
        op: u64,
        parent: u32,
    ) -> DbResult<Option<Vec<Row>>> {
        let moved = match ty {
            UF1 => {
                spanned(tracer, "execute", op, parent, |_| updates::uf1(&self.db, &self.gen, 1))?
            }
            UF2 => {
                spanned(tracer, "execute", op, parent, |_| updates::uf2(&self.db, &self.gen, 1))?
            }
            _ => {
                let n = ty + 1;
                return Ok(Some(match tracer {
                    Some(t) => self.traced_query(t, op, parent, n)?,
                    None => tpcd::run_query(&self.db, n, &self.params)?.rows,
                }));
            }
        };
        if moved == self.refresh_rows {
            Ok(None)
        } else {
            Err(rdbms::DbError::execution(format!(
                "refresh moved {moved} rows, the stream has {}",
                self.refresh_rows
            )))
        }
    }

    /// One whole round. Returns (result rows, counter delta).
    fn round(
        &mut self,
        tracer: Option<&Tracer>,
        samples: &mut Vec<Sample>,
        record_round0: bool,
    ) -> (u64, Counters) {
        let round_start = Counters::of(&self.db);
        let mut result_rows = 0;
        for ty in 0..self.op_types.len() {
            let op = self.next_op;
            self.next_op += 1;
            let before = record_round0.then(|| self.db.snapshot());
            let started = Instant::now();
            let outcome = spanned(tracer, "op", op, ROOT, |span| self.call(ty, tracer, op, span));
            let ns = started.elapsed().as_nanos() as u64;
            let name = &self.op_types[ty];
            let failed = match outcome {
                Err(e) => {
                    self.verdict.problem(format!("tpcd_power/{name}: {e}"));
                    true
                }
                Ok(rows) => {
                    let hash = rows.as_deref().map_or(0, hash_rows);
                    result_rows += rows.as_ref().map_or(0, |r| r.len() as u64);
                    if let Some(before) = before {
                        let counters = self.db.snapshot().since(&before);
                        self.round0.insert(name.clone(), OpFacts { hash, counters });
                        // An empty answer would make every later check of
                        // this query vacuous.
                        let empty = rows.as_ref().is_some_and(Vec::is_empty);
                        if empty {
                            self.verdict.problem(format!(
                                "tpcd_power/{name}: no rows: the parameters do not fit the data"
                            ));
                        }
                        empty
                    } else if self.round0.get(name).is_some_and(|f| f.hash != hash) {
                        // UF1 + UF2 is the identity, so every round must
                        // return round 0's answers.
                        self.verdict
                            .problem(format!("tpcd_power/{name}: answer changed between rounds"));
                        true
                    } else {
                        false
                    }
                }
            };
            samples.push(Sample { ty: ty as u16, ns, failed });
        }
        (result_rows, Counters::of(&self.db).since(&round_start))
    }
}

impl World for TpcdPower {
    fn op_types(&self) -> &[String] {
        &self.op_types
    }

    fn facts(&self) -> &SetupFacts {
        &self.facts
    }

    fn warm_up(&mut self) {
        self.round(None, &mut Vec::new(), true);
        if let Some(expected) = &self.expected {
            oracle::check_expected("tpcd_power", expected, &self.round0, &mut self.verdict);
        }
    }

    fn round0(&self) -> BTreeMap<String, OpFacts> {
        self.round0.clone()
    }

    fn run_window(&mut self, window: Duration, tracer: Option<&Arc<Tracer>>) -> WindowRun {
        let tracer = tracer.map(|t| &**t);
        run_rounds(
            self,
            window,
            |w| Counters::of(&w.db),
            |w, samples| w.round(tracer, samples, false),
        )
    }

    fn layer_metrics(&self, untraced: &WindowRun, spans: &[SpanRec], out: &mut Layers) {
        engine_layer_metrics(untraced, out);
        for (ty, name) in self.op_types.iter().enumerate() {
            if let Some(ms) = type_median(untraced, ty, 1e6) {
                out.insert(format!("query.{name}_ms"), ms);
            }
        }
        let names = spans::by_name(spans);
        for (span, metric) in [("parse", "sql.parse_us"), ("plan", "planner.plan_us")] {
            if let Some(&(count, total_ns, _)) = names.get(span) {
                out.insert(metric.into(), total_ns as f64 / 1e3 / count as f64);
            }
        }
    }

    fn finish(mut self: Box<Self>, _layers: &mut Layers) -> Verdict {
        // Independent recomputation of Q1, Q6 and the row counts straight
        // from the generator: an engine bug cannot validate itself.
        match tpcd::validate::validate(&self.db, &self.gen) {
            Ok(problems) => {
                problems.into_iter().for_each(|p| self.verdict.problem(format!("tpcd_power: {p}")))
            }
            Err(e) => self.verdict.problem(format!("tpcd_power: validation failed to run: {e}")),
        }
        self.verdict
    }
}
