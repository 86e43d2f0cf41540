//! SAP-side workload adapters for the TPC-D throughput test.
//!
//! The generic driver lives in `tpcd::throughput`; these adapters run each
//! stream unit through the R/3 application server instead of the raw
//! engine: queries via Native or Open SQL reports, update functions via
//! the batch-input facility (one batch-input transaction per order — the
//! application-level LUW that stands in for an engine transaction, with
//! its per-record consistency checking).
//!
//! ## Lock claims
//!
//! R/3 reads the database through committed-read prepared cursors: the
//! database interface holds no shared locks to end-of-transaction —
//! cross-record consistency is the enqueue service's job, not the
//! RDBMS's (§2.3 of the paper). A report's footprint therefore maps to
//! `RowLock::shared_existing` over every key of each table it reads: it
//! serializes against RF2's deletes of existing orders but lets RF1's
//! fresh-key inserts slip past. The one coarse claim left is the 2.2 KONV
//! cluster: the encapsulated KOCLU container cannot be locked at row
//! granularity, so batch input takes table X on it — exactly the
//! cluster-table concurrency penalty the 3.0 transparent KONV removes,
//! where batch input claims the stream's orderkey range instead. Claims
//! are engine `LockRequest`s; the driver decides conflicts with
//! `LockRequest::conflicts`.

use crate::reports::{self, SapInterface};
use crate::{R3System, Release};
use rdbms::error::DbResult;
use rdbms::lock::{KeyRange, LockMode, LockRequest, RowLock};
use rdbms::Database;
use tpcd::queries::QueryParams;
use tpcd::throughput::{
    query_read_set, update_stream_claims, update_stream_lock, LockClaim, StreamWorkload,
};
use tpcd::DbGen;

/// One of the paper's SAP configurations (release × interface) as a
/// throughput-test workload.
pub struct SapWorkload<'a> {
    pub sys: &'a R3System,
    pub iface: SapInterface,
    pub gen: &'a DbGen,
}

impl SapWorkload<'_> {
    /// Physical table behind the KONV pricing conditions: a cluster
    /// container in 2.2, a transparent table from 3.0 on.
    fn konv_physical(&self) -> &'static str {
        match self.sys.release {
            Release::R22 => "KOCLU",
            Release::R30 => "KONV",
        }
    }

    /// Batch input writes the order, its lineitems, and their pricing
    /// conditions: key-range X on the stream's orderkey block, plus the
    /// physical KONV claim — row-granular on the 3.0 transparent table,
    /// the coarse container lock on the 2.2 cluster.
    fn update_locks(&self, stream: u64, fresh: bool) -> Vec<LockClaim> {
        let mut claims = update_stream_claims(self.gen, stream, fresh);
        let req = match self.sys.release {
            Release::R22 => LockRequest::Table(LockMode::Exclusive),
            Release::R30 => LockRequest::Row(update_stream_lock(self.gen, stream, fresh)),
        };
        claims.push(LockClaim { table: self.konv_physical().to_string(), req });
        claims
    }
}

impl StreamWorkload for SapWorkload<'_> {
    fn name(&self) -> String {
        format!("SAP R/3 {} {}", self.sys.release, self.iface)
    }

    fn db(&self) -> &Database {
        &self.sys.db
    }

    fn run_query(&self, n: usize, params: &QueryParams) -> DbResult<u64> {
        Ok(reports::run_query_rows(self.sys, self.iface, n, params)?.len() as u64)
    }

    fn run_uf1(&self, stream: u64) -> DbResult<u64> {
        crate::batch_input::batch_uf1(self.sys, self.gen, stream)
    }

    fn run_uf2(&self, stream: u64) -> DbResult<u64> {
        crate::batch_input::batch_uf2(self.sys, self.gen, stream)
    }

    fn query_locks(&self, n: usize, params: &QueryParams) -> Vec<LockClaim> {
        // The logical footprint of the reference SQL as committed-read
        // cursor probes, plus the physical KONV representation for
        // pricing-condition queries.
        let mut tables: Vec<String> = query_read_set(&self.sys.db, n, params).into_iter().collect();
        if reports::touches_konv(n) {
            tables.push(self.konv_physical().to_string());
        }
        let cursor_read = LockRequest::Row(RowLock::shared_existing(KeyRange::all()));
        tables.into_iter().map(|table| LockClaim { table, req: cursor_read.clone() }).collect()
    }

    fn uf1_locks(&self, stream: u64) -> Vec<LockClaim> {
        self.update_locks(stream, true)
    }

    fn uf2_locks(&self, stream: u64) -> Vec<LockClaim> {
        self.update_locks(stream, false)
    }

    /// Batch input issues COMMIT WORK once per order document, not once
    /// per refresh function.
    fn uf_commits(&self, stream: u64) -> u64 {
        self.gen.update_stream(stream).0.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcd::throughput::{run_throughput_test, LockModel, ThroughputConfig};

    #[test]
    fn sap_throughput_runs_deterministically_on_both_interfaces() {
        for iface in [SapInterface::Native, SapInterface::Open] {
            let run = |_| {
                let sys = R3System::install_default(Release::R30).unwrap();
                let gen = DbGen::new(0.001);
                sys.load_tpcd(&gen).unwrap();
                let params = QueryParams::for_scale(gen.sf);
                let workload = SapWorkload { sys: &sys, iface, gen: &gen };
                let config = ThroughputConfig { query_streams: 2, seed: 11, ..Default::default() };
                run_throughput_test(&workload, &params, gen.sf, &config).unwrap()
            };
            let a = run(0);
            let b = run(1);
            assert_eq!(a.streams.len(), 3);
            assert!(a.elapsed_seconds > 0.0);
            assert_eq!(a.elapsed_seconds.to_bits(), b.elapsed_seconds.to_bits(), "{iface}");
            assert_eq!(a.qthd.to_bits(), b.qthd.to_bits());
        }
    }

    #[test]
    fn hierarchical_locking_frees_the_sap_update_stream() {
        let run = |model: LockModel| {
            let sys = R3System::install_default(Release::R30).unwrap();
            let gen = DbGen::new(0.001);
            sys.load_tpcd(&gen).unwrap();
            let params = QueryParams::for_scale(gen.sf);
            let workload = SapWorkload { sys: &sys, iface: SapInterface::Open, gen: &gen };
            let config = ThroughputConfig {
                query_streams: 2,
                seed: 11,
                lock_model: model,
                ..Default::default()
            };
            run_throughput_test(&workload, &params, gen.sf, &config).unwrap()
        };
        let table = run(LockModel::Table);
        let hier = run(LockModel::Hierarchical);
        let table_upd = table.stream("UPD").unwrap();
        let hier_upd = hier.stream("UPD").unwrap();
        assert!(table_upd.lock_wait_seconds > 0.0, "baseline UFs queue behind query reads");
        for u in &hier_upd.units {
            if u.unit.starts_with("UF1") {
                assert_eq!(u.lock_wait, 0.0, "RF1 slips past R/3's cursor reads: {u:?}");
            }
        }
        assert!(
            hier_upd.lock_wait_seconds < table_upd.lock_wait_seconds,
            "update-stream lock wait must drop: {} vs {}",
            hier_upd.lock_wait_seconds,
            table_upd.lock_wait_seconds
        );
        assert!(hier.qthd >= table.qthd);
    }

    #[test]
    fn r22_cluster_keeps_coarse_konv_claims() {
        let sys = R3System::install_default(Release::R22).unwrap();
        let gen = DbGen::new(0.001);
        let workload = SapWorkload { sys: &sys, iface: SapInterface::Open, gen: &gen };
        let uf1 = workload.uf1_locks(1);
        let koclu = uf1.iter().find(|c| c.table == "KOCLU").expect("KOCLU claim");
        assert_eq!(
            koclu.req,
            LockRequest::Table(LockMode::Exclusive),
            "2.2 cluster cannot be row-locked"
        );

        let sys30 = R3System::install_default(Release::R30).unwrap();
        let workload30 = SapWorkload { sys: &sys30, iface: SapInterface::Open, gen: &gen };
        let uf1 = workload30.uf1_locks(1);
        let konv = uf1.iter().find(|c| c.table == "KONV").expect("KONV claim");
        assert_eq!(
            konv.req,
            LockRequest::Row(update_stream_lock(&gen, 1, true)),
            "3.0 transparent KONV is row-granular: {konv:?}"
        );
        // A pricing-condition report read does not block the 3.0 insert
        // but does collide with the 2.2 container lock.
        let report = workload30.query_locks(3, &QueryParams::for_scale(gen.sf));
        let read = &report.iter().find(|c| c.table == "KONV").expect("Q3 reads KONV").req;
        assert!(!read.conflicts(&konv.req));
        assert!(read.conflicts(&koclu.req));
    }
}
