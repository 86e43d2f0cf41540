//! Group commit under the dispatcher (DESIGN.md §10.5).
//!
//! Many work processes enter COMMIT WORK concurrently; the shared log
//! flusher must batch their log forces into far fewer fsyncs while every
//! committed document stays durable. The workload is batch input of part
//! master records — each document ends in [`R3System::commit_work`] — run
//! through a dispatcher pool, and durability is checked by restarting a
//! fresh database from the log afterwards.

use r3::dispatcher::{Dispatcher, DispatcherConfig, WpKind};
use r3::{R3System, Release, SqlOp};
use rdbms::wal::WalConfig;
use rdbms::{Database, DbConfig};
use std::path::PathBuf;
use std::sync::Arc;
use tpcd::DbGen;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("r3-group-commit-{name}-{}", std::process::id()));
    p
}

#[test]
fn concurrent_commit_work_batches_log_forces() {
    let log = tmp("parts");
    std::fs::remove_file(&log).ok();
    let config = DbConfig { wal: Some(WalConfig::new(&log)), ..DbConfig::default() };
    let sys = Arc::new(R3System::install(Release::R22, config.clone()).unwrap());
    sys.sql_trace.enable();

    // Part documents need no referenced master data, so every dialog step
    // goes straight to validation + number range + inserts + COMMIT WORK.
    let parts = DbGen::new(0.0005).parts();
    let n_docs = parts.len();
    assert!(n_docs >= 50, "want a meaningful commit load, got {n_docs}");

    let before = sys.meter().snapshot();
    let dispatcher = Dispatcher::start(
        Arc::clone(&sys),
        DispatcherConfig { dialog_processes: 4, batch_processes: 1 },
    );
    let handles: Vec<_> = parts
        .into_iter()
        .map(|p| {
            dispatcher.submit(WpKind::Dialog, format!("MM01 {}", p.partkey), move |s| {
                s.batch_input_part(&p)
            })
        })
        .collect();
    for h in handles {
        let stats = h.wait();
        stats.result.expect("document must commit");
    }
    dispatcher.shutdown();

    let work = sys.meter().snapshot().since(&before);
    // Every document committed exactly once through COMMIT WORK, plus the
    // NRIV autocommit updates; each commit is accounted to exactly one
    // group-commit batch.
    assert!(
        work.group_commit_batch() >= n_docs as u64,
        "each document parks on the log flusher: {} batched commits < {n_docs} documents",
        work.group_commit_batch()
    );
    // The whole point: far fewer log forces than commits.
    assert!(work.wal_flushes() >= 1);
    assert!(
        work.wal_flushes() < work.group_commit_batch(),
        "group commit must batch: {} flushes for {} commits",
        work.wal_flushes(),
        work.group_commit_batch()
    );
    // COMMIT WORK shows up in the ST05 trace, one entry per document.
    let commits = sys.sql_trace.take().iter().filter(|e| e.op == SqlOp::Commit).count();
    assert_eq!(commits, n_docs, "one traced COMMIT WORK per document");

    // Durability: a fresh database restarted from the log alone has every
    // committed document's master record.
    drop(sys);
    let (db, report) = Database::recover(config).unwrap();
    assert!(report.losers.is_empty(), "no in-flight work at shutdown");
    let mara = db.query("SELECT COUNT(*) FROM MARA").unwrap().scalar().unwrap().as_int().unwrap();
    assert_eq!(mara as usize, n_docs, "all part documents survive the restart");
    std::fs::remove_file(&log).ok();
}

#[test]
fn commit_work_without_wal_is_free() {
    let sys = R3System::install_default(Release::R22).unwrap();
    let before = sys.meter().snapshot();
    sys.commit_work(sys.db.begin()).unwrap();
    let work = sys.meter().snapshot().since(&before);
    assert_eq!(work.ipc_crossings(), 0, "no WAL, no commit crossing");
    assert_eq!(work.wal_flushes(), 0);
}
