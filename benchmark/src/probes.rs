//! Layer probes: isolated cost per operation of each layer, on fixed
//! inputs, through the layer's public functions. Run only in `--trace 1`;
//! workload-independent, so every workload reports the same ladder.

use crate::workloads::Layers;
use r3::dispatcher::{Dispatcher, DispatcherConfig, WpKind};
use r3::opensql::{Cond, SelectSpec};
use r3::report::{app_aggregate, app_sort, AppAgg};
use r3::schema::key16;
use r3::{R3System, Release};
use rdbms::exec::expr::{BExpr, ExecCtx};
use rdbms::index::btree::BTree;
use rdbms::planner::PlannerConfig;
use rdbms::sql::ast::{AggFunc, BinOp};
use rdbms::sql::{parse_query, parse_statement};
use rdbms::storage::codec::{decode_row, encode_key, encode_row};
use rdbms::storage::{AccessPattern, HeapFile, Pager, PagerConfig, Rid};
use rdbms::wal::{LogPayload, WalConfig, SYSTEM_TXN};
use rdbms::{
    CommitPolicy, CostMeter, Database, DbConfig, KeyRange, LockManager, LockMode, PlanCache,
    RowLock, Value,
};
use server::protocol::{read_frame, write_frame, MAX_FRAME};
use server::{Client, Server, ServerConfig};
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcd::schema::lineitem_row;
use tpcd::DbGen;

/// How long each probe measures.
const PROBE_TIME: Duration = Duration::from_millis(40);

/// Nanoseconds per call of `f`, calling it in batches of `batch` until
/// [`PROBE_TIME`] has passed.
fn ns_per_call(batch: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch as u64;
        let elapsed = started.elapsed();
        if elapsed >= PROBE_TIME {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

/// Rows of the executor probe table.
const PROBE_ROWS: i64 = 5_000;

pub fn run_all(scratch: &Path, out: &mut Layers) {
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    let gen = DbGen::new(0.0005);
    let (_, lineitems) = gen.orders_and_lineitems();
    let rows: Vec<Vec<Value>> = lineitems.iter().map(lineitem_row).collect();

    // codec: one lineitem row (16 columns, ~110 bytes).
    let row = &rows[0];
    let encoded = encode_row(row);
    put(
        "codec.encode_row_ns",
        ns_per_call(1000, || drop(std::hint::black_box(encode_row(std::hint::black_box(row))))),
    );
    put(
        "codec.decode_row_ns",
        ns_per_call(1000, || {
            drop(std::hint::black_box(decode_row(std::hint::black_box(&encoded))))
        }),
    );
    put(
        "codec.encode_key_ns",
        ns_per_call(1000, || {
            drop(std::hint::black_box(encode_key(std::hint::black_box(&row[..4]))))
        }),
    );

    // pager: hits on a resident page; misses cycling 64 pages through an
    // 8-page pool.
    let pager = Pager::new(PagerConfig { pool_pages: 8 }, CostMeter::new());
    let pids: Vec<_> = (0..64).map(|_| pager.allocate()).collect();
    put(
        "pager.read_hit_ns",
        ns_per_call(1000, || {
            pager
                .read(pids[63], AccessPattern::Random, |p| std::hint::black_box(p.nslots()))
                .expect("page exists");
        }),
    );
    let mut next = 0;
    put(
        "pager.read_miss_ns",
        ns_per_call(1000, || {
            next = (next + 1) % pids.len();
            pager
                .read(pids[next], AccessPattern::Sequential, |p| std::hint::black_box(p.nslots()))
                .expect("page exists");
        }),
    );

    // heap: lineitem rows in a pool that holds them all.
    let pager = Pager::new(PagerConfig { pool_pages: 4096 }, CostMeter::new());
    let heap = HeapFile::new(Arc::clone(&pager));
    let mut rids: Vec<Rid> = Vec::new();
    let mut i = 0;
    put(
        "heap.insert_ns",
        ns_per_call(500, || {
            rids.push(heap.insert(&rows[i % rows.len()]).expect("heap insert"));
            i += 1;
        }),
    );
    let mut i = 0;
    put(
        "heap.get_ns",
        ns_per_call(500, || {
            i = (i + 7919) % rids.len();
            std::hint::black_box(heap.get(rids[i], AccessPattern::Random).expect("heap get"));
        }),
    );
    let started = Instant::now();
    let scanned = heap.scan().filter(|r| r.is_ok()).count();
    put("heap.scan_row_ns", started.elapsed().as_nanos() as f64 / scanned.max(1) as f64);

    // btree: 20 000 16-byte keys inserted in a scattered order (every node
    // access decodes a whole page, so 100 000 would take the probe 9 s).
    let pager = Pager::new(PagerConfig { pool_pages: 4096 }, CostMeter::new());
    let mut tree = BTree::new(Arc::clone(&pager), true).expect("btree");
    let n_keys = 20_000u64;
    let key = |i: u64| {
        let k = (i * 48_271) % n_keys;
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&k.to_be_bytes());
        bytes[8..].copy_from_slice(&(k ^ 0x5bd1_e995).to_be_bytes());
        bytes
    };
    let started = Instant::now();
    for i in 0..n_keys {
        tree.insert(&key(i), Rid::new(i as u32, 0)).expect("btree insert");
    }
    put("btree.insert_ns", started.elapsed().as_nanos() as f64 / n_keys as f64);
    let mut i = 0;
    put(
        "btree.search_ns",
        ns_per_call(200, || {
            i += 1;
            std::hint::black_box(tree.search_exact(&key(i % n_keys)).expect("btree search"));
        }),
    );
    let mut i = 0;
    put(
        "btree.range100_ns",
        ns_per_call(20, || {
            i = (i + 997) % (n_keys - 100);
            let (lo, hi) = (i.to_be_bytes(), (i + 100).to_be_bytes());
            let found = tree
                .range_scan(Bound::Included(&lo[..]), Bound::Excluded(&hi[..]))
                .expect("btree range");
            debug_assert_eq!(found.len(), 100);
            std::hint::black_box(found);
        }),
    );

    // A small loaded database for the statement-level probes.
    let db = Arc::new(Database::with_defaults());
    tpcd::schema::load(&db, &gen).expect("probe database load");
    let probe_sql = "SELECT o_custkey, o_totalprice FROM orders WHERE o_orderkey = 1027";
    put(
        "sql.parse_probe_ns",
        ns_per_call(100, || drop(std::hint::black_box(parse_statement(probe_sql)))),
    );
    let query = parse_query(probe_sql).expect("probe parses");
    put(
        "planner.plan_probe_ns",
        ns_per_call(20, || drop(std::hint::black_box(db.prepare_select(&query)))),
    );
    let cache = PlanCache::new(16);
    cache.prepare(&db, probe_sql).expect("probe plans");
    put(
        "plancache.lookup_hit_ns",
        ns_per_call(100, || {
            std::hint::black_box(cache.prepare(&db, probe_sql).expect("cached").cache_hit);
        }),
    );

    // expr: three bound expressions over one lineitem row.
    // Columns: 4 l_quantity, 5 l_extendedprice, 6 l_discount, 13 l_shipinstruct.
    let meter = CostMeter::new();
    let ctx = ExecCtx::new(&[], &meter);
    let col = |i| BExpr::Column(i).boxed();
    let lit = |v| BExpr::Literal(v).boxed();
    let binary = |left, op, right| BExpr::Binary { left, op, right };
    let one_minus_discount = binary(lit(Value::Int(1)), BinOp::Sub, col(6)).boxed();
    let arith = binary(col(5), BinOp::Mul, one_minus_discount);
    let like = BExpr::Like { expr: col(13), pattern: lit(Value::str("%BACK%")), negated: false };
    let compare = binary(col(4), BinOp::Lt, lit(Value::Int(24)));
    for (name, expr) in
        [("expr.arith_ns", &arith), ("expr.like_ns", &like), ("expr.compare_ns", &compare)]
    {
        put(
            name,
            ns_per_call(1000, || {
                drop(std::hint::black_box(expr.eval(std::hint::black_box(row), &ctx)))
            }),
        );
    }

    exec_probes(&db, &mut put);

    // lock: uncontended acquire + release_all.
    let locks = LockManager::new(Duration::from_secs(1));
    put(
        "lock.table_acquire_ns",
        ns_per_call(1000, || {
            locks.acquire(1, "T", LockMode::IntentShared).expect("uncontended");
            locks.release_all(1);
        }),
    );
    let point = KeyRange::point(&42u64.to_be_bytes());
    put(
        "lock.row_acquire_ns",
        ns_per_call(1000, || {
            locks.acquire(1, "T", LockMode::IntentShared).expect("uncontended");
            locks.acquire_row(1, "T", RowLock::shared(point.clone())).expect("uncontended");
            locks.release_all(1);
        }),
    );

    wal_probes(scratch, row, &mut put);
    r3_probes(&gen, &rows, &mut put);

    // protocol: one frame written to memory and read back.
    let payload = [7u8; 64];
    let mut buf = Vec::with_capacity(128);
    put(
        "protocol.frame_roundtrip_ns",
        ns_per_call(1000, || {
            buf.clear();
            write_frame(&mut buf, b'Q', &payload).expect("vec write");
            std::hint::black_box(read_frame(&mut buf.as_slice(), MAX_FRAME).expect("frame reads"));
        }),
    );

    // server: the cheapest round trip there is.
    let server = Server::start(Arc::clone(&db), ServerConfig::default()).expect("server start");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    put(
        "server.sync_roundtrip_us",
        ns_per_call(20, || {
            std::hint::black_box(client.sync().expect("sync"));
        }) / 1e3,
    );
    drop(client);
    server.shutdown();
}

/// Operator probes through `Database::execute_prepared` on a fixed table.
fn exec_probes(db: &Database, put: &mut impl FnMut(&str, f64)) {
    db.execute("CREATE TABLE probe_t (k INTEGER NOT NULL, g INTEGER NOT NULL, v INTEGER NOT NULL, s VARCHAR(20), PRIMARY KEY (k))")
        .expect("probe table");
    db.execute("CREATE TABLE probe_u (k INTEGER NOT NULL, w INTEGER NOT NULL, PRIMARY KEY (k))")
        .expect("probe table");
    for k in 0..PROBE_ROWS {
        let v = (k * 7_919) % PROBE_ROWS;
        db.insert_row(
            "probe_t",
            &[Value::Int(k), Value::Int(k % 50), Value::Int(v), Value::str(format!("row {v}"))],
        )
        .expect("probe row");
        db.insert_row("probe_u", &[Value::Int(k), Value::Int(v)]).expect("probe row");
    }
    db.execute("ANALYZE").expect("analyze");
    let n = PROBE_ROWS as f64;
    let time = |sql: &str, params: &[Value], batch: usize| {
        let prepared = db.prepare(sql).expect("probe statement plans");
        ns_per_call(batch, || {
            drop(std::hint::black_box(db.execute_prepared(&prepared, params).expect("probe runs")))
        })
    };
    put("exec.scan_ns_per_row", time("SELECT COUNT(*) FROM probe_t", &[], 1) / n);
    put(
        "exec.filter_ns_per_row",
        time("SELECT COUNT(*) FROM probe_t WHERE v < 2500 AND g <> 7", &[], 1) / n,
    );
    put("exec.index_probe_ns", time("SELECT v FROM probe_t WHERE k = ?", &[Value::Int(1234)], 100));
    put("exec.sort_ns_per_row", time("SELECT k, v FROM probe_t ORDER BY v", &[], 1) / n);
    put(
        "exec.groupby_ns_per_row",
        time("SELECT g, COUNT(*), SUM(v) FROM probe_t GROUP BY g", &[], 1) / n,
    );
    let join =
        "SELECT COUNT(*) FROM probe_u, probe_t WHERE probe_u.w = probe_t.k AND probe_u.k < 500";
    put("exec.hashjoin_ns_per_row", time(join, &[], 1) / (n + 500.0));
    let config = db.planner_config();
    db.set_planner_config(PlannerConfig { enable_hash_join: false, ..config });
    put("exec.nljoin_ns_per_outer_row", time(join, &[], 1) / 500.0);
    db.set_planner_config(config);
}

fn wal_probes(scratch: &Path, row: &[Value], put: &mut impl FnMut(&str, f64)) {
    let open = |name: &str, policy| {
        let wal = WalConfig::new(scratch.join(name)).with_policy(policy);
        let db = Database::new(DbConfig { wal: Some(wal), ..DbConfig::default() });
        db.execute("CREATE TABLE w (k INTEGER NOT NULL, v VARCHAR(40), PRIMARY KEY (k))")
            .expect("wal probe table");
        db
    };
    // append: one insert record into the in-memory log buffer.
    let db = open("probe_append.wal", CommitPolicy::NoFsync);
    let wal = db.wal().expect("wal on");
    let record = [LogPayload::Insert { table: "w".into(), rid: Rid::new(1, 1), row: row.to_vec() }];
    let mut appended = 0;
    put(
        "wal.append_ns",
        ns_per_call(1000, || {
            std::hint::black_box(wal.append_batch(SYSTEM_TXN, &record));
            appended += 1;
            if appended % 20_000 == 0 {
                wal.write_buffered(false).expect("log write");
            }
        }),
    );
    // txn: begin / insert / commit without the force.
    let mut k = 0;
    put(
        "txn.insert_commit_us",
        ns_per_call(50, || {
            k += 1;
            let mut txn = db.begin();
            txn.insert_row("w", &[Value::Int(k), Value::str("probe")]).expect("insert");
            txn.commit().expect("commit");
        }) / 1e3,
    );
    let started = Instant::now();
    db.checkpoint().expect("checkpoint");
    put("wal.checkpoint_ms", started.elapsed().as_secs_f64() * 1e3);

    // commit: the force alone, one real fsync per call.
    let db = open("probe_fsync.wal", CommitPolicy::FsyncPerCommit);
    let wal = db.wal().expect("wal on");
    let mut forced = Duration::ZERO;
    let mut commits = 0u32;
    while forced < PROBE_TIME && commits < 2_000 {
        let lsn = wal.append_batch(SYSTEM_TXN, &record)[0];
        let started = Instant::now();
        wal.commit(lsn).expect("log force");
        forced += started.elapsed();
        commits += 1;
    }
    put("wal.commit_fsync_us", forced.as_nanos() as f64 / 1e3 / commits as f64);
}

fn r3_probes(gen: &DbGen, rows: &[Vec<Value>], put: &mut impl FnMut(&str, f64)) {
    let sys = R3System::install_default(Release::R30).expect("R/3 install");
    sys.load_tpcd(&DbGen::with_seed(0.0002, gen.seed)).expect("SAP load");
    let spec = SelectSpec::from_table("MARA").cond(Cond::eq("MATNR", key16(7))).single();
    put(
        "opensql.translate_ns",
        ns_per_call(100, || {
            std::hint::black_box(sys.translate(&spec, &["MARA".to_string()]).expect("translates"));
        }),
    );
    put(
        "opensql.select_single_us",
        ns_per_call(20, || {
            std::hint::black_box(sys.open_select(&spec).expect("select single"));
        }) / 1e3,
    );

    // buffer: MARA switched on, one record put and fetched.
    let record = sys.open_select(&spec).expect("select single").rows.into_iter().next();
    sys.buffer.enable("MARA");
    sys.buffer.set_capacity_bytes(1 << 20);
    put(
        "buffer.put_ns",
        ns_per_call(1000, || sys.buffer.put("MARA", "0000000000000007", record.clone())),
    );
    put(
        "buffer.get_ns",
        ns_per_call(1000, || {
            drop(std::hint::black_box(sys.buffer.get("MARA", "0000000000000007")))
        }),
    );

    // report runtime: app-side sort and EXTRACT/SORT/LOOP aggregation of
    // lineitem rows (group by l_returnflag, l_linestatus; sum a product).
    let meter = Arc::clone(sys.meter());
    let input: Vec<Vec<Value>> = rows.iter().take(2_000).cloned().collect();
    let n = input.len() as f64;
    // Alternate two orders so every call has real sorting to do.
    let mut data = input.clone();
    let orders: [&[(usize, bool)]; 2] = [&[(10, false), (0, true)], &[(5, true)]];
    let mut turn = 0;
    put(
        "report.sort_ns_per_row",
        ns_per_call(1, || {
            turn += 1;
            app_sort(&meter, &mut data, orders[turn % 2]);
        }) / n,
    );
    let product = BExpr::Binary {
        left: BExpr::Column(5).boxed(),
        op: BinOp::Mul,
        right: BExpr::Column(6).boxed(),
    };
    let agg = AppAgg { group_cols: vec![8, 9], aggs: vec![(AggFunc::Sum, product)], having: None };
    put(
        "report.aggregate_ns_per_row",
        ns_per_call(1, || {
            std::hint::black_box(app_aggregate(&meter, &input, &agg).expect("aggregates"));
        }) / n,
    );

    // dispatcher: a no-op job, submit to wait.
    let sys = Arc::new(sys);
    let dispatcher = Dispatcher::start(
        Arc::clone(&sys),
        DispatcherConfig { dialog_processes: 1, batch_processes: 0 },
    );
    put(
        "dispatcher.hop_us",
        ns_per_call(20, || {
            dispatcher.submit(WpKind::Dialog, "noop", |_| Ok(())).wait().result.expect("no-op job");
        }) / 1e3,
    );
    dispatcher.shutdown();
}
