//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--sf <scale>] [table1 .. table9 | figures | all | throughput
//!              | trace [qN] | durability | observe [--smoke]]
//! ```
//!
//! `throughput` runs the multi-user TPC-D test on all four configurations
//! (isolated, isolated over the extended protocol, Native SQL, Open SQL)
//! at 1, 2 and 4 query streams, each under table and hierarchical
//! locking.
//!
//! `trace` runs the end-to-end observability demo for one query (default
//! Q3): an EXPLAIN ANALYZE plan trace, ST05 SQL traces on 2.2G vs 3.0E,
//! and dispatcher/throughput latency histograms.
//!
//! `durability` runs the commit-durability experiment (QthD and order
//! entry/posting under each engine commit policy: no fsync, per-commit
//! fsync, and group commit) and records the baseline in
//! `BENCH_durability.json`.
//!
//! `observe` runs the wire, live-monitoring and request-tracing experiment
//! (collectors-off vs collectors-on QthD, a live monitor connection
//! polling all eight `M$` views mid-run, the Chrome trace export, the
//! simple vs extended protocol phases over real loopback sockets, a
//! 120-connection stress phase, the §4.1 blind-plan lock-wait diagnosis,
//! and p99 critical-path attribution across the blind-plan / 2.2G / 3.0E
//! configurations) and records the baseline in `BENCH_observe.json`. Its
//! default scale is 0.02 unless `--sf` is given explicitly.
//! `observe --smoke` is the CI-sized variant (SF 0.005), written to
//! `target/experiments/BENCH_observe_smoke.json`.
//!
//! Results print as text tables (paper numbers alongside) and are also
//! dumped as JSON under `target/experiments/`.

use bench::{ExpTable, OrderEntryResult, ThroughputSystem};
use serde_json::Json;
use std::env;
use std::fs;
use tpcd::ThroughputResult;

fn qthd_json(r: &ThroughputResult) -> Json {
    Json::object()
        .field("configuration", r.configuration.clone())
        .field("durability", r.durability.clone())
        .field("query_streams", r.query_streams)
        .field("elapsed_seconds", r.elapsed_seconds)
        .field("busy_seconds", r.streams.iter().map(|s| s.busy_seconds).sum::<f64>())
        .field("qthd", r.qthd)
        .field("commits", r.commits)
        .field("wal_flushes", r.wal_flushes)
}

fn order_entry_json(r: &OrderEntryResult) -> Json {
    Json::object()
        .field("phase", r.phase.clone())
        .field("durability", r.durability.clone())
        .field("sessions", r.clerks)
        .field("documents", r.documents)
        .field("elapsed_seconds", r.elapsed_seconds)
        .field("per_hour", r.per_hour)
        .field("commit_wait_seconds", r.commit_wait_seconds)
        .field("commits", r.commits)
        .field("wal_flushes", r.wal_flushes)
        .field("avg_group_commit_batch", r.avg_batch())
}

/// The durability experiment: QthD plus order entry/posting under each
/// commit policy, recorded as the `BENCH_durability.json` baseline.
fn run_durability(sf: f64) -> Result<(), rdbms::DbError> {
    let mut qthd_runs: Vec<Json> = Vec::new();
    println!("QthD@{sf} under each commit policy (2 query streams, seed 42):");
    for system in [ThroughputSystem::Isolated, ThroughputSystem::Open] {
        let series = bench::run_qthd_series(system, sf, 2, 42, |r| {
            println!(
                "  {:22} {:18} qthd={:8.1} commits={:5} wal_flushes={:5}",
                r.configuration, r.durability, r.qthd, r.commits, r.wal_flushes
            );
        })?;
        qthd_runs.extend(series.iter().map(qthd_json));
    }

    let clerks = 8;
    println!(
        "\nOrder entry and posting ({clerks} batch sessions / {} interactive clerks):",
        bench::durability::POSTING_USERS
    );
    let order_entry = bench::run_order_entry_series(sf, clerks)?;
    for r in &order_entry {
        println!(
            "  {:8} {:18} per_hour={:12.1} commit_wait={:9.3}s flushes={:5} batch={:.2}",
            r.phase,
            r.durability,
            r.per_hour,
            r.commit_wait_seconds,
            r.wal_flushes,
            r.avg_batch()
        );
    }

    let notes = [
        "Virtual-time cost model: each run plays the engine's commit policy \
         (durability) on one simulated log device whose flushes take \
         Calibration.ms_wal_flush; no_fsync charges nothing.",
        "Each QthD run starts from its own freshly loaded database, so the three \
         policies do identical work (equal busy_seconds) and differ only in commit wait.",
        "QthD barely moves: only the update stream commits, and batch-input \
         documents cost seconds of consistency checking each.",
        "Order posting is the commit-bound case: interactive clerks oversubscribe \
         a per-commit-fsync log; group commit batches their flushes.",
        "Regenerate: cargo run --release -p bench --bin experiments -- --sf <sf> durability",
    ];
    let doc = Json::object()
        .field("benchmark", "durability")
        .field("sf", sf)
        .field("seed", 42u64)
        .field("notes", Json::Array(notes.iter().map(|&n| Json::from(n)).collect()))
        .field("qthd_runs", Json::Array(qthd_runs))
        .field("order_entry", Json::Array(order_entry.iter().map(order_entry_json).collect()));
    emit("BENCH_durability.json", &doc);
    Ok(())
}

/// Serialize `doc`, prove the text re-parses, and write it to `path`.
/// Exits non-zero on any failure: CI gates on what these files hold.
fn emit(path: &str, doc: &Json) {
    let json = serde_json::to_string_pretty(doc).expect("document serializes");
    if let Err(e) = serde_json::from_str(&json) {
        eprintln!("{path}: emitted JSON does not parse: {e}");
        std::process::exit(1);
    }
    if let Err(e) = fs::write(path, json) {
        eprintln!("write to {path} failed: {e}");
        std::process::exit(1);
    }
    println!("\n  (written to {path})");
}

/// Report a failed experiment and exit non-zero.
fn fail(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("{what} failed: {e}");
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut sf = 0.01f64;
    let mut which: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sf" => {
                i += 1;
                sf = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("--sf needs a number"));
            }
            other => which.push(other.to_string()),
        }
        i += 1;
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = (1..=9).map(|n| format!("table{n}")).collect();
        which.push("figures".into());
    }

    let out_dir = "target/experiments";
    let _ = fs::create_dir_all(out_dir);

    let run = |name: &str, table: Result<ExpTable, rdbms::DbError>| match table {
        Ok(t) => {
            println!("{}", t.render());
            let path = format!("{out_dir}/{name}.json");
            if let Ok(json) = serde_json::to_string_pretty(&t) {
                let _ = fs::write(&path, json);
                println!("  (written to {path})\n");
            }
        }
        Err(e) => eprintln!("{name} failed: {e}"),
    };

    match which.first().map(String::as_str) {
        // The wire experiment: SF 0.02 unless `--sf` is given, 0.005 for a
        // smoke run (written under `target/experiments/`).
        Some("observe") => {
            let smoke = which.iter().any(|w| w == "--smoke" || w == "smoke");
            let sf = if args.iter().any(|a| a == "--sf") {
                sf
            } else if smoke {
                0.005
            } else {
                0.02
            };
            let path = if smoke {
                format!("{out_dir}/BENCH_observe_smoke.json")
            } else {
                "BENCH_observe.json".to_string()
            };
            let doc = bench::observe::run_observe_experiment(sf, smoke);
            emit(&path, &doc.unwrap_or_else(|e| fail("observe experiment", e)));
        }
        Some("durability") => run_durability(sf).unwrap_or_else(|e| fail("durability", e)),
        // `trace [qN|N]`: one subcommand consuming an optional query operand.
        Some("trace") => {
            let n = which
                .get(1)
                .map(|q| {
                    q.trim_start_matches(['q', 'Q'])
                        .parse::<usize>()
                        .unwrap_or_else(|_| panic!("trace: bad query '{q}'"))
                })
                .unwrap_or(3);
            let artifacts = bench::tracecmd::run_trace(n, sf).unwrap_or_else(|e| fail("trace", e));
            for a in &artifacts {
                println!("{}", a.text);
                emit(&format!("{out_dir}/{}.json", a.name), &a.json);
            }
        }
        _ => {
            for w in &which {
                match w.as_str() {
                    "table1" => run("table1", bench::table1()),
                    "table2" => run("table2", bench::table2(sf)),
                    "table3" => run("table3", bench::table3(sf)),
                    "table4" => run("table4", bench::table4(sf)),
                    "table5" => run("table5", bench::table5(sf)),
                    "table6" => run("table6", bench::table6(sf)),
                    "table7" => run("table7", bench::table7(sf)),
                    "table8" => run("table8", bench::table8(sf)),
                    "table9" => run("table9", bench::table9(sf)),
                    "throughput" => run("throughput", bench::throughput_table(sf)),
                    "figures" => println!("{}", bench::figures()),
                    other => eprintln!("unknown experiment '{other}'"),
                }
            }
        }
    }
}
