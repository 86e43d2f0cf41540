//! Throughput identity: the virtual-time schedule of the throughput test
//! is pinned bit for bit in a checked-in table, so a change to how lock
//! claims are derived or how conflicts are decided that moves any unit's
//! start, lock wait or commit wait fails `cargo test --workspace`.
//!
//! Every time is recorded as `f64::to_bits` (hex), so the comparison is
//! exact. When a change moves the schedule on purpose, argue it and
//! replace `golden/throughput_schedule.txt` with the table the failing
//! assertion prints.

use rdbms::{CommitPolicy, Database};
use tpcd::dbgen::DbGen;
use tpcd::queries::QueryParams;
use tpcd::schema::load;
use tpcd::throughput::{
    run_throughput_test, ExtendedIsolatedWorkload, IsolatedWorkload, LockModel, StreamWorkload,
    ThroughputConfig, ThroughputResult,
};

const GOLDEN: &str = include_str!("golden/throughput_schedule.txt");

fn run(workload: &dyn StreamWorkload, gen: &DbGen, lock_model: LockModel) -> ThroughputResult {
    let params = QueryParams::for_scale(gen.sf);
    let config = ThroughputConfig {
        query_streams: 2,
        lock_model,
        durability: CommitPolicy::GroupCommit,
        ..Default::default()
    };
    run_throughput_test(workload, &params, gen.sf, &config).unwrap()
}

/// One header line per run, then one line per unit.
fn render(out: &mut String, label: &str, r: &ThroughputResult) {
    out.push_str(&format!(
        "## {label} {} qthd={:016x} commits={} wal_flushes={}\n",
        r.lock_model,
        r.qthd.to_bits(),
        r.commits,
        r.wal_flushes
    ));
    for s in &r.streams {
        for u in &s.units {
            out.push_str(&format!(
                "{} {} {:016x} {:016x} {:016x}\n",
                s.stream,
                u.unit,
                u.start.to_bits(),
                u.lock_wait.to_bits(),
                u.commit_wait.to_bits()
            ));
        }
    }
}

#[test]
fn throughput_schedule_matches_golden_table() {
    let mut actual = String::from("# stream unit start lock_wait commit_wait (f64 bits)\n");
    for lock_model in [LockModel::Table, LockModel::Hierarchical] {
        for extended in [false, true] {
            let db = Database::with_defaults();
            let gen = DbGen::new(0.002);
            load(&db, &gen).unwrap();
            let (label, result) = if extended {
                ("extended", run(&ExtendedIsolatedWorkload::new(&db, &gen), &gen, lock_model))
            } else {
                ("isolated", run(&IsolatedWorkload { db: &db, gen: &gen }, &gen, lock_model))
            };
            render(&mut actual, label, &result);
        }
    }
    assert!(
        actual == GOLDEN,
        "throughput schedule drifted from crates/tpcd/tests/golden/throughput_schedule.txt.\n\
         expected:\n{GOLDEN}\nactual:\n{actual}"
    );
}
