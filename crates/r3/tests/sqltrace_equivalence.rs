//! ST05 trace ↔ cost-meter equivalence.
//!
//! Every `ipc_crossings` the meter charges must correspond to exactly one
//! traced interface call (and vice versa): the SQL trace is only a
//! trustworthy instrument if nothing crosses the interface untraced. We
//! run every report variant and the batch-input update functions with the
//! trace enabled and check that the traced crossings sum to the meter's
//! counter delta.
//!
//! The same traces then demonstrate the paper's central Open SQL finding:
//! a KONV-touching report on Release 2.2G (cluster KONV, no push-down)
//! crosses the interface far more often than on 3.0E (transparent KONV,
//! joins and aggregates pushed down).

use r3::reports::{run_query_rows, touches_konv, SapInterface};
use r3::sqltrace::{self, SqlOp, SqlTraceEntry};
use r3::{R3System, Release};
use tpcd::{DbGen, QueryParams};

const SF: f64 = 0.001;

fn system(release: Release, gen: &DbGen) -> R3System {
    let sys = R3System::install_default(release).unwrap();
    sys.load_tpcd(gen).unwrap();
    sys
}

/// Run `f` with the trace enabled, returning the traced entries and the
/// meter's `ipc_crossings` delta over the call.
fn traced<R>(sys: &R3System, f: impl FnOnce() -> R) -> (Vec<SqlTraceEntry>, u64, R) {
    sys.sql_trace.clear();
    sys.sql_trace.enable();
    let before = sys.snapshot();
    let out = f();
    let crossings = sys.snapshot().since(&before).ipc_crossings();
    sys.sql_trace.disable();
    (sys.sql_trace.take(), crossings, out)
}

#[test]
fn traced_crossings_equal_meter_counter_for_every_report() {
    let gen = DbGen::new(SF);
    let p = QueryParams::for_scale(gen.sf);
    for release in [Release::R22, Release::R30] {
        let sys = system(release, &gen);
        for iface in [SapInterface::Native, SapInterface::Open] {
            for n in 1..=17 {
                let (entries, metered, res) = traced(&sys, || run_query_rows(&sys, iface, n, &p));
                res.unwrap_or_else(|e| panic!("Q{n} {iface} {release} failed: {e}"));
                let summary = sqltrace::summarize(&entries);
                assert_eq!(
                    summary.crossings, metered,
                    "Q{n} via {iface} on {release}: trace recorded {} crossings \
                     but the meter charged {metered}",
                    summary.crossings,
                );
                // Buffer hits never cross the interface.
                for e in &entries {
                    if e.op == SqlOp::BufferHit {
                        assert_eq!(e.crossings, 0, "buffer hit charged a crossing");
                    }
                }
            }
        }
    }
}

#[test]
fn traced_crossings_equal_meter_counter_for_batch_input() {
    let gen = DbGen::new(SF);
    for release in [Release::R22, Release::R30] {
        let sys = system(release, &gen);
        let (entries, metered, res) = traced(&sys, || r3::batch_input::batch_uf1(&sys, &gen, 1));
        res.unwrap_or_else(|e| panic!("UF1 on {release} failed: {e}"));
        let inserted = sqltrace::summarize(&entries);
        assert_eq!(inserted.crossings, metered, "UF1 on {release}");
        assert!(inserted.statements > 0, "UF1 traced nothing");

        let (entries, metered, res) = traced(&sys, || r3::batch_input::batch_uf2(&sys, &gen, 1));
        res.unwrap_or_else(|e| panic!("UF2 on {release} failed: {e}"));
        let deleted = sqltrace::summarize(&entries);
        assert_eq!(deleted.crossings, metered, "UF2 on {release}");
        assert!(deleted.statements > 0, "UF2 traced nothing");
    }
}

#[test]
fn a_first_number_draw_is_metered_and_traced() {
    // A fresh system has no NRIV interval yet: posting the first part
    // draws MATL's first number, a SELECT that finds nothing and the
    // INSERT of the interval row. Both cross the interface.
    let gen = DbGen::new(SF);
    let sys = R3System::install_default(Release::R30).unwrap();
    let part = &gen.parts()[0];
    let (entries, metered, res) = traced(&sys, || sys.batch_input_part(part));
    res.unwrap();
    assert_eq!(sqltrace::summarize(&entries).crossings, metered);
    let nriv: Vec<(SqlOp, u64)> = entries
        .iter()
        .filter(|e| e.statement.contains("NRIV"))
        .map(|e| (e.op, e.crossings))
        .collect();
    assert_eq!(nriv.len(), 2, "SELECT + INSERT of the interval row: {nriv:?}");
    assert_eq!(nriv[1], (SqlOp::Insert, 1), "{nriv:?}");
    assert!(nriv.iter().all(|&(_, crossings)| crossings == 1), "{nriv:?}");
}

#[test]
fn a_failing_crossing_is_traced_with_its_error() {
    let sys = R3System::install_default(Release::R30).unwrap();
    let (entries, metered, res) = traced(&sys, || sys.db_execute_direct("SELECT * FROM NOPE"));
    assert!(res.is_err(), "the statement names no table");
    assert_eq!(metered, 1, "the failed call still crossed the interface");
    assert_eq!(sqltrace::summarize(&entries).crossings, metered);
    assert_eq!(entries.len(), 1);
    assert_eq!((entries[0].op, entries[0].rows), (SqlOp::Exec, 0));
    assert!(entries[0].error.is_some(), "{:?}", entries[0]);
}

#[test]
fn open_sql_push_down_reduces_crossings_on_konv_reports() {
    // The paper's §4 story, read straight off the ST05 trace: the same
    // Open SQL report on 2.2G (nested per-document KONV reads, app-side
    // joins) crosses the interface more often than on 3.0E (joins and
    // simple aggregates pushed down, transparent KONV).
    let gen = DbGen::new(SF);
    let p = QueryParams::for_scale(gen.sf);
    let s22 = system(Release::R22, &gen);
    let s30 = system(Release::R30, &gen);
    let mut some_konv_query_improved = false;
    for n in 1..=17 {
        let (e22, x22, r) = traced(&s22, || run_query_rows(&s22, SapInterface::Open, n, &p));
        r.unwrap();
        let (e30, x30, r) = traced(&s30, || run_query_rows(&s30, SapInterface::Open, n, &p));
        r.unwrap();
        assert_eq!(sqltrace::summarize(&e22).crossings, x22);
        assert_eq!(sqltrace::summarize(&e30).crossings, x30);
        if touches_konv(n) {
            assert!(x30 <= x22, "Q{n}: Open SQL 3.0E made {x30} crossings, 2.2G only {x22}");
            if x30 < x22 {
                some_konv_query_improved = true;
            }
        }
    }
    assert!(some_konv_query_improved, "no KONV query showed fewer crossings under 3.0E push-down");
}
