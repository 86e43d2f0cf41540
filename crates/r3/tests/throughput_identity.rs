//! Throughput identity for the SAP configurations: the virtual-time
//! schedule of an Open SQL throughput run on 2.2G and 3.0E is pinned bit
//! for bit in a checked-in table. 2.2G is the configuration whose batch
//! input takes table X on the KOCLU cluster container; 3.0E locks KONV at
//! row granularity.
//!
//! Every time is recorded as `f64::to_bits` (hex). When a change moves the
//! schedule on purpose, argue it and replace
//! `golden/sap_throughput_schedule.txt` with the table the failing
//! assertion prints.

use r3::reports::SapInterface;
use r3::throughput::SapWorkload;
use r3::{R3System, Release};
use rdbms::CommitPolicy;
use tpcd::queries::QueryParams;
use tpcd::throughput::{run_throughput_test, LockModel, ThroughputConfig};
use tpcd::DbGen;

const GOLDEN: &str = include_str!("golden/sap_throughput_schedule.txt");

#[test]
fn sap_throughput_schedule_matches_golden_table() {
    let mut actual = String::from("# stream unit start lock_wait commit_wait (f64 bits)\n");
    for release in [Release::R22, Release::R30] {
        for lock_model in [LockModel::Table, LockModel::Hierarchical] {
            let sys = R3System::install_default(release).unwrap();
            let gen = DbGen::new(0.001);
            sys.load_tpcd(&gen).unwrap();
            let params = QueryParams::for_scale(gen.sf);
            let workload = SapWorkload { sys: &sys, iface: SapInterface::Open, gen: &gen };
            let config = ThroughputConfig {
                query_streams: 2,
                lock_model,
                durability: CommitPolicy::GroupCommit,
                ..Default::default()
            };
            let r = run_throughput_test(&workload, &params, gen.sf, &config).unwrap();
            actual.push_str(&format!(
                "## {release} {} qthd={:016x} commits={} wal_flushes={}\n",
                r.lock_model,
                r.qthd.to_bits(),
                r.commits,
                r.wal_flushes
            ));
            for s in &r.streams {
                for u in &s.units {
                    actual.push_str(&format!(
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
    }
    assert!(
        actual == GOLDEN,
        "SAP throughput schedule drifted from crates/r3/tests/golden/sap_throughput_schedule.txt.\n\
         expected:\n{GOLDEN}\nactual:\n{actual}"
    );
}
