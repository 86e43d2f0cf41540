//! `sap_reports`: one client, two R/3 systems (2.2G and 3.0E), rounds of
//! the 17 reports through Native and Open SQL on each — the paper's
//! Tables 4-5 in wall clock. Same executor as `tpcd_power`, driven with
//! thousands of tiny prepared probes instead of 17 big statements.

use super::{
    engine_layer_metrics, round_robin_hash, run_rounds, user_data, Config, Counters, Layers,
    SetupFacts, WindowRun, World,
};
use crate::oracle::{self, hash_row_prefixes, hash_rows, OpFacts, Verdict};
use crate::params::population;
use crate::spans::{spanned, SpanRec, Tracer, ROOT};
use crate::stats::{median, Sample};
use r3::reports::{run_query_rows, SapInterface};
use r3::{R3System, Release};
use rdbms::storage::{PagerConfig, PAGE_SIZE};
use rdbms::{Counter, Database, Row};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpcd::QueryParams;

/// 300 orders, 4 suppliers, 30 customers, 40 parts; the SAP schema
/// inflates them about fifteenfold. A round of the 68 reports takes 1.7 s,
/// so a run holds thirteen: the fewer rounds, the less the fastest-fifth
/// selection can do (at SF 0.0004, five rounds a run, ten seeds spread by
/// 0.24-0.28 on a noisy quarter of an hour).
pub const SF: f64 = 0.0002;

const N_QUERIES: usize = 17;
const VARIANTS: [(&str, Release, SapInterface); 4] = [
    ("native22", Release::R22, SapInterface::Native),
    ("open22", Release::R22, SapInterface::Open),
    ("native30", Release::R30, SapInterface::Native),
    ("open30", Release::R30, SapInterface::Open),
];

pub fn op_names() -> Vec<String> {
    VARIANTS
        .iter()
        .flat_map(|(v, _, _)| (1..=N_QUERIES).map(move |n| format!("{v}.q{n:02}")))
        .collect()
}

pub fn op_sequence_hash(seed: u64, n: usize) -> u64 {
    round_robin_hash(&population(SF, seed).0, &op_names(), n)
}

pub struct SapReports {
    s22: R3System,
    s30: R3System,
    params: QueryParams,
    op_types: Vec<String>,
    facts: SetupFacts,
    /// Q1..Q17 answered by the isolated RDBMS on the same generated data.
    reference: Vec<Vec<Row>>,
    round0: BTreeMap<String, OpFacts>,
    expected: Option<BTreeMap<String, OpFacts>>,
    verdict: Verdict,
    next_op: u64,
}

impl SapReports {
    pub fn setup(cfg: &Config) -> SapReports {
        let (gen, params) = population(SF, cfg.seed);
        let started = Instant::now();
        let install = |release| {
            let sys = R3System::install_default(release).expect("R/3 install");
            sys.load_tpcd(&gen).expect("SAP load");
            sys
        };
        let (s22, s30) = (install(Release::R22), install(Release::R30));
        let load_seconds = started.elapsed().as_secs_f64();

        let (user_bytes, rows_loaded, dbgen_ms) = user_data(&gen);
        let isolated = Database::with_defaults();
        tpcd::schema::load(&isolated, &gen).expect("isolated reference load");
        let reference: Vec<Vec<Row>> = (1..=N_QUERIES)
            .map(|n| tpcd::run_query(&isolated, n, &params).expect("reference query").rows)
            .collect();
        for (n, rows) in reference.iter().enumerate() {
            // Empty equals empty would check nothing.
            assert!(!rows.is_empty(), "Q{} returns no rows for seed {}", n + 1, cfg.seed);
        }
        let pages = s22.db.pager().allocated_pages() + s30.db.pager().allocated_pages();
        SapReports {
            facts: SetupFacts {
                sf: SF,
                pool_bytes: PagerConfig::default().pool_pages * PAGE_SIZE,
                flush_policy: "wal off",
                clients: 1,
                // Mean inflation of the two systems.
                stored_bytes_per_user_byte: (pages * PAGE_SIZE) as f64 / (2 * user_bytes) as f64,
                rows_loaded: 2 * rows_loaded,
                setup_seconds: load_seconds,
                dbgen_ms,
            },
            s22,
            s30,
            params,
            op_types: op_names(),
            reference,
            round0: BTreeMap::new(),
            expected: oracle::read_expected(cfg.seed, "sap_reports"),
            verdict: Verdict::default(),
            next_op: 0,
        }
    }

    fn system(&self, release: Release) -> &R3System {
        match release {
            Release::R22 => &self.s22,
            Release::R30 => &self.s30,
        }
    }

    fn counters(&self) -> Counters {
        Counters::of(&self.s22.db).plus(&Counters::of(&self.s30.db))
    }

    /// One whole round: 17 reports x 4 variants.
    fn round(
        &mut self,
        tracer: Option<&Tracer>,
        samples: &mut Vec<Sample>,
        record_round0: bool,
    ) -> (u64, Counters) {
        let round_start = self.counters();
        let mut result_rows = 0;
        for (v, &(_, release, iface)) in VARIANTS.iter().enumerate() {
            for n in 1..=N_QUERIES {
                let ty = v * N_QUERIES + n - 1;
                let op = self.next_op;
                self.next_op += 1;
                let sys = self.system(release);
                let before = sys.snapshot();
                // The report is one call from outside: the op span has a
                // single child.
                let (outcome, ns, counters) = spanned(tracer, "op", op, ROOT, |span| {
                    let child = tracer.map(|t| t.begin("report", op, span));
                    let started = Instant::now();
                    let outcome = run_query_rows(sys, iface, n, &self.params);
                    let ns = started.elapsed().as_nanos() as u64;
                    let counters = sys.snapshot().since(&before);
                    if let (Some(t), Some(child)) = (tracer, child) {
                        t.end(child, counters.db_tuples());
                    }
                    (outcome, ns, counters)
                });
                let name = &self.op_types[ty];
                let failed = match outcome {
                    Err(e) => {
                        self.verdict.problem(format!("sap_reports/{name}: {e}"));
                        true
                    }
                    Ok(rows) => {
                        result_rows += rows.len() as u64;
                        let hash = hash_rows(&rows);
                        if record_round0 {
                            self.round0.insert(name.clone(), OpFacts { hash, counters });
                        }
                        let width = rows.first().map_or(usize::MAX, Vec::len);
                        let wrong = hash != hash_row_prefixes(&self.reference[n - 1], width);
                        if wrong {
                            self.verdict.problem(format!(
                                "sap_reports/{name}: rows differ from the isolated RDBMS's"
                            ));
                        }
                        wrong
                    }
                };
                samples.push(Sample { ty: ty as u16, ns, failed });
            }
        }
        (result_rows, self.counters().since(&round_start))
    }
}

impl World for SapReports {
    fn op_types(&self) -> &[String] {
        &self.op_types
    }

    fn facts(&self) -> &SetupFacts {
        &self.facts
    }

    fn warm_up(&mut self) {
        self.round(None, &mut Vec::new(), true);
        if let Some(expected) = &self.expected {
            oracle::check_expected("sap_reports", expected, &self.round0, &mut self.verdict);
        }
    }

    fn round0(&self) -> BTreeMap<String, OpFacts> {
        self.round0.clone()
    }

    fn run_window(&mut self, window: Duration, tracer: Option<&Arc<Tracer>>) -> WindowRun {
        let tracer = tracer.map(|t| &**t);
        run_rounds(self, window, Self::counters, |w, samples| w.round(tracer, samples, false))
    }

    fn layer_metrics(&self, untraced: &WindowRun, _spans: &[SpanRec], out: &mut Layers) {
        engine_layer_metrics(untraced, out);
        let b = untraced;
        out.insert("opensql.crossings_per_op".into(), b.per_op(Counter::IpcCrossings));
        out.insert(
            "opensql.tuples_per_crossing".into(),
            b.basis.get(Counter::IpcTuples) / b.basis.get(Counter::IpcCrossings).max(1.0),
        );
        out.insert("report.app_tuples_per_op".into(), b.per_op(Counter::AppTuples));
        out.insert("report.spill_pages_per_op".into(), b.per_op(Counter::AppSpillPages));

        // Seconds per 17-report round of each variant: median over rounds.
        let per_round = self.op_types.len();
        let mut round_s = [0.0f64; 4];
        for (v, slot) in round_s.iter_mut().enumerate() {
            let rounds: Vec<f64> = b
                .samples
                .chunks(per_round)
                .map(|r| {
                    r[v * N_QUERIES..(v + 1) * N_QUERIES].iter().map(|s| s.ns as f64 / 1e9).sum()
                })
                .collect();
            *slot = median(&rounds);
            out.insert(format!("sap.{}_round_s", VARIANTS[v].0), *slot);
        }
        out.insert("sap.open_over_native_22".into(), round_s[1] / round_s[0]);
        out.insert("sap.open_over_native_30".into(), round_s[3] / round_s[2]);
    }

    fn finish(self: Box<Self>, _layers: &mut Layers) -> Verdict {
        self.verdict
    }
}
