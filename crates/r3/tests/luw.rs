//! A logical unit of work (one batch-input document, ended by COMMIT WORK)
//! is one engine transaction: a crash keeps a document whole or not at
//! all, and a reader in another work process never sees half of one.

use r3::opensql::{Cond, SelectSpec};
use r3::schema::{self, key16};
use r3::{R3System, Release};
use rdbms::wal::{scan_records, WalConfig};
use rdbms::{CommitPolicy, Database, DbConfig, DbError, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tpcd::records::{LineItem, Order};
use tpcd::DbGen;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("r3-luw-{name}-{}", std::process::id()));
    p
}

/// Orders keyed above the base population, each with its lineitems.
fn new_documents(gen: &DbGen, n: u64) -> Vec<(Order, Vec<LineItem>)> {
    (1..=n)
        .map(|seq| {
            let (mut orders, items) = gen.update_stream(seq);
            let order = orders.swap_remove(0);
            let items = items.into_iter().filter(|l| l.orderkey == order.orderkey).collect();
            (order, items)
        })
        .collect()
}

fn post(sys: &R3System, (order, items): &(Order, Vec<LineItem>)) -> Result<(), DbError> {
    sys.batch_input_order(order, &items.iter().collect::<Vec<_>>())
}

/// Every stored row of document `key`, table by table: the order header
/// and items, schedule lines, pricing conditions (transparent or in their
/// cluster container) and long texts.
fn document(db: &Database, release: Release, key: i64) -> Vec<Vec<Vec<Value>>> {
    let k = format!("{key:016}");
    let konv = match release {
        Release::R22 => format!("SELECT * FROM KOCLU WHERE KNUMV = '{k}'"),
        Release::R30 => format!("SELECT * FROM KONV WHERE KNUMV = '{k}' ORDER BY KPOSN, KSCHL"),
    };
    [
        format!("SELECT * FROM VBAK WHERE VBELN = '{k}'"),
        format!("SELECT * FROM VBAP WHERE VBELN = '{k}' ORDER BY POSNR"),
        format!("SELECT * FROM VBEP WHERE VBELN = '{k}' ORDER BY POSNR"),
        konv,
        format!("SELECT * FROM STXL WHERE TDNAME LIKE '{k}%' ORDER BY TDNAME"),
    ]
    .iter()
    .map(|sql| db.query(sql).unwrap().rows)
    .collect()
}

/// Crash the log of a two-document history — post A, post B, delete A —
/// at every record boundary and inside every record after the master
/// data, recover each prefix, and find each document whole or absent.
#[test]
fn a_crash_keeps_batch_input_documents_whole() {
    for release in [Release::R22, Release::R30] {
        let log = tmp(&format!("history-{release}"));
        let config = DbConfig {
            wal: Some(WalConfig::new(&log).with_policy(CommitPolicy::NoFsync)),
            ..DbConfig::default()
        };
        let sys = R3System::install(release, config.clone()).unwrap();
        let gen = DbGen::new(0.0005);
        let masters = (gen.nations().iter().map(schema::nation_rows))
            .chain(gen.regions().iter().map(schema::region_rows))
            .chain(gen.suppliers().iter().map(schema::supplier_rows))
            .chain(gen.parts().iter().map(schema::part_rows))
            .chain(gen.partsupps().iter().map(schema::partsupp_rows))
            .chain(gen.customers().iter().map(schema::customer_rows))
            .collect::<Vec<_>>();
        for rows in masters {
            sys.insert_record(&rows).unwrap();
        }
        sys.db.wal_flush().unwrap();
        let history_starts = std::fs::metadata(&log).unwrap().len();

        let docs = new_documents(&gen, 2);
        let (a, b) = (docs[0].0.orderkey, docs[1].0.orderkey);
        let empty = document(&sys.db, release, a);
        assert!(empty.iter().all(Vec::is_empty));
        post(&sys, &docs[0]).unwrap();
        let whole_a = document(&sys.db, release, a);
        post(&sys, &docs[1]).unwrap();
        let whole_b = document(&sys.db, release, b);
        assert!(whole_a.iter().chain(&whole_b).all(|rows| !rows.is_empty()), "{release}");
        sys.batch_delete_order(a).unwrap();
        assert_eq!(document(&sys.db, release, a), empty);
        sys.db.wal_flush().unwrap();
        let bytes = std::fs::read(&log).unwrap();
        drop(sys);

        let (records, end) = scan_records(&bytes);
        let mut cuts: Vec<usize> = vec![end as usize];
        for r in records.iter().filter(|r| r.lsn >= history_starts) {
            cuts.extend([r.lsn as usize, r.lsn as usize + 5]);
        }
        assert!(cuts.len() > 100, "{release}: {} cuts", cuts.len());
        let (mut saw_a, mut saw_b) = (false, false);
        let cut_log = tmp(&format!("cut-{release}"));
        for cut in cuts {
            std::fs::write(&cut_log, &bytes[..cut]).unwrap();
            let restart = DbConfig { wal: Some(WalConfig::new(&cut_log)), ..config.clone() };
            let (db, _) = Database::recover(restart).unwrap();
            let (got_a, got_b) = (document(&db, release, a), document(&db, release, b));
            assert!(
                got_a == empty || got_a == whole_a,
                "{release} cut={cut}: half of A: {got_a:?}"
            );
            assert!(
                got_b == empty || got_b == whole_b,
                "{release} cut={cut}: half of B: {got_b:?}"
            );
            saw_a |= got_a == whole_a;
            saw_b |= got_b == whole_b;
        }
        assert!(saw_a && saw_b, "{release}: some cut keeps each document");
        std::fs::remove_file(&cut_log).ok();
        std::fs::remove_file(&log).ok();
    }
}

/// Run `step` until it is not a deadlock victim.
fn retried(mut step: impl FnMut() -> Result<(), DbError>) {
    loop {
        match step() {
            Err(DbError::Deadlock(_)) => {}
            other => return other.unwrap(),
        }
    }
}

/// One work process posts and deletes documents while another reads them
/// through Open SQL, order header then items, in one LUW: whenever the
/// header is there, so are all its items.
#[test]
fn an_open_sql_reader_never_sees_half_a_document() {
    let sys = R3System::install_default(Release::R30).unwrap();
    let gen = DbGen::new(0.0005);
    sys.load_tpcd(&gen).unwrap();
    let docs = new_documents(&gen, 3);
    let done = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Acquire) {
                for (order, items) in &docs {
                    retried(|| {
                        let mut luw = sys.db.begin();
                        let vbeln = Cond::eq("VBELN", key16(order.orderkey));
                        let header = SelectSpec::from_table("VBAK").cond(vbeln.clone());
                        if sys.open_select_in(&mut luw, &header)?.rows.is_empty() {
                            return Ok(());
                        }
                        let positions =
                            SelectSpec::from_table("VBAP").fields(&["POSNR"]).cond(vbeln);
                        let found = sys.open_select_in(&mut luw, &positions)?.rows.len();
                        assert_eq!(
                            found,
                            items.len(),
                            "order {} without all its items",
                            order.orderkey
                        );
                        reads.fetch_add(1, Ordering::Relaxed);
                        sys.commit_work(luw)
                    });
                }
            }
        });
        for _ in 0..15 {
            for doc in &docs {
                retried(|| post(&sys, doc));
            }
            for (order, _) in &docs {
                retried(|| sys.batch_delete_order(order.orderkey));
            }
        }
        done.store(true, Ordering::Release);
    });
    assert!(reads.load(Ordering::Relaxed) > 0, "the reader found documents to read");
}
