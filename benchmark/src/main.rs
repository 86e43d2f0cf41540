//! One wall-clock benchmark for the whole stack: four workloads, eight
//! end-to-end metrics, a per-layer ladder. See `benchmark/README.md`.

mod catalog;
mod measure;
mod oracle;
mod params;
mod probes;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use measure::Phase;
use rdbms::{Counter, WaitEvent};
use report::{MetricValue, WorkloadReport};
use serde_json::Json;
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Duration;
use workloads::{Config, Layers, WindowRun, World};

/// Measured seconds per run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 22;
/// Times the world is built per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str =
    "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
[--out FILE] [--smoke] | --record-expected [--seed N] | --compare A.json B.json";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    record_expected: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let all: Vec<&'static str> = catalog::WORKLOADS.iter().map(|(n, _)| *n).collect();
    let mut args = Args {
        workloads: all.clone(),
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
        record_expected: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    let known = all
                        .iter()
                        .find(|w| **w == name)
                        .ok_or(format!("unknown workload {name}"))?;
                    args.workloads = vec![known];
                }
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => args.smoke = true,
            "--record-expected" => args.record_expected = true,
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `exec.budget_unexplained_fraction`: 1 - Σ(metered counts x probe cost)
/// / time measured inside `Plan::execute` — the share of executor time
/// the layer ladder's unit costs do not account for.
fn budget_unexplained(untraced: &WindowRun, layers: &Layers) -> Option<f64> {
    let exec_ns = untraced.counters.wait_us(WaitEvent::Exec) * 1e3;
    let cost = |name: &str| layers.get(name).copied();
    let c = &untraced.counters;
    let explained = c.get(Counter::DbTuples) * cost("exec.scan_ns_per_row")?
        + c.meter.pages_read() as f64
            * (cost("pager.read_miss_ns")? - cost("pager.read_hit_ns")?).max(0.0)
        + c.get(Counter::IndexNodeReads) * cost("pager.read_hit_ns")?;
    (exec_ns > 0.0).then(|| 1.0 - explained / exec_ns)
}

struct Plan {
    seed: u64,
    /// Measured seconds of an untraced run; a traced run spends a third
    /// untraced, a third traced and the rest on the layer probes.
    measured: Duration,
    setups: usize,
    scratch: PathBuf,
}

fn build(name: &str, plan: &Plan) -> Box<dyn World> {
    workloads::setup(name, &Config { seed: plan.seed, scratch: plan.scratch.clone() })
}

fn finish_report(
    name: &str,
    phases: &[&Phase],
    metrics: Vec<MetricValue>,
    extra: Vec<MetricValue>,
    verdict: oracle::Verdict,
) -> WorkloadReport {
    for p in phases {
        println!(
            "# {name}: fastest {} of {} slices kept: {:.2} ops/s against {:.2} over all slices",
            p.whole.slices,
            p.all.slices,
            p.ops_per_s(),
            p.all_slices_ops_per_s
        );
    }
    WorkloadReport {
        name: name.into(),
        correct: verdict.problems.is_empty(),
        attempted: phases.iter().map(|p| p.attempted()).sum(),
        failed: phases.iter().map(|p| p.failed()).sum(),
        metrics,
        extra,
        windows: phases.iter().flat_map(|p| p.summaries()).collect(),
        problems: verdict.problems,
        cost_clock_drift: verdict.cost_clock_drift,
    }
}

fn print_world_header(name: &str, seed: u64, world: &dyn World) {
    let f = world.facts();
    println!(
        "# {name}: SF {} | pool {} KB | {} | {} client(s), closed loop | {} op types | op-sequence hash {:016x}",
        f.sf,
        f.pool_bytes / 1024,
        f.flush_policy,
        f.clients,
        world.op_types().len(),
        workloads::op_sequence_hash(name, seed, 1000)
    );
}

/// `--trace 0`: set up, warm up, measure, check; then set up again, only
/// to time it.
fn run_untraced(name: &str, plan: &Plan) -> WorkloadReport {
    // Each world times its own set-up (load, index build, server start),
    // leaving out what it builds for the oracle.
    let timed_build = || {
        let world = build(name, plan);
        let setup_s = world.facts().setup_seconds;
        (world, setup_s)
    };
    let (mut world, first_setup_s) = timed_build();
    print_world_header(name, plan.seed, world.as_ref());
    world.warm_up();
    let phase = measure::phase(measure::measure(world.as_mut(), plan.measured));
    // Read before the end-of-run checks and the extra set-ups, so the
    // peak is one world's.
    let peak_rss_mb = sys::peak_rss_mb();
    let (n_types, stored_ratio) =
        (world.op_types().len(), world.facts().stored_bytes_per_user_byte);
    let verdict = world.finish(&mut Layers::new());
    let mut setup_s = vec![first_setup_s];
    setup_s.extend((1..plan.setups).map(|_| timed_build().1));
    let mut metrics = phase.end_to_end(&setup_s, n_types, peak_rss_mb, stored_ratio);
    let extra = metrics.split_off(catalog::END_TO_END.len());
    print_metrics(name, &metrics);
    finish_report(name, &[&phase], metrics, extra, verdict)
}

/// `--trace 1`: the layer probes, an untraced and a traced phase, and the
/// span file.
fn run_traced(name: &str, plan: &Plan) -> WorkloadReport {
    // Probes first, in a process that has run nothing else: the ladder is
    // the same whichever workload follows.
    let mut layers = Layers::new();
    probes::run_all(&plan.scratch, &mut layers);
    let mut world = build(name, plan);
    print_world_header(name, plan.seed, world.as_ref());
    world.warm_up();
    let third = plan.measured / 3;
    let ref_before_ms = sys::ref_kernel_ms();
    let tracer = Arc::new(Tracer::new());
    let (untraced, traced) = measure::measure_alternating(world.as_mut(), third, &tracer);
    let (untraced, traced) = (measure::phase(untraced), measure::phase(traced));
    let ref_kernel_ms = ref_before_ms.min(sys::ref_kernel_ms());
    let spans = tracer.take();

    let facts = world.facts().clone();
    layers.insert("load.dbgen_ms".into(), facts.dbgen_ms);
    layers.insert("load.rows_per_s".into(), facts.rows_loaded as f64 / facts.setup_seconds);
    // Counts and per-type medians describe the whole phase, every slice of
    // it; only the two rates compared below are the kept slices'.
    world.layer_metrics(&untraced.all.run, &spans, &mut layers);
    layers.insert(
        "harness.trace_overhead_fraction".into(),
        1.0 - traced.ops_per_s() / untraced.ops_per_s(),
    );
    layers.insert("harness.span_coverage_fraction".into(), spans::coverage(&spans));
    layers.insert("harness.ref_kernel_ms".into(), ref_kernel_ms);
    if let Some(unexplained) = budget_unexplained(&untraced.all.run, &layers) {
        layers.insert("exec.budget_unexplained_fraction".into(), unexplained);
    }
    let verdict = world.finish(&mut layers);

    let trace_file = sys::package_dir().join("target").join(format!("trace_{name}.json"));
    let text = serde_json::to_string(&spans::to_json(&spans)).expect("Json renders");
    match std::fs::write(&trace_file, text) {
        Ok(()) => println!("# {name}: {} spans written to {}", spans.len(), trace_file.display()),
        Err(e) => eprintln!("cannot write {}: {e}", trace_file.display()),
    }

    // Every catalogued layer metric appears in the result line; one this
    // workload does not exercise reads 0 there and is left out of the
    // printed list.
    let metric = |name: &str, value: f64| MetricValue { name: name.into(), value, spread: 0.0 };
    let exercised: Vec<MetricValue> = catalog::PER_LAYER
        .iter()
        .filter_map(|(n, _, _)| layers.get(*n).map(|&v| metric(n, v)))
        .collect();
    print_metrics(name, &exercised);
    let metrics = catalog::PER_LAYER
        .iter()
        .map(|(n, _, _)| metric(n, layers.get(*n).copied().unwrap_or(0.0)))
        .collect();
    finish_report(name, &[&untraced, &traced], metrics, Vec::new(), verdict)
}

fn print_metrics(workload: &str, metrics: &[MetricValue]) {
    for m in metrics {
        println!("{workload} {} {} {}", m.name, m.value, catalog::unit_of(&m.name));
    }
}

fn print_verdict(r: &WorkloadReport) {
    for drift in &r.cost_clock_drift {
        println!("# cost_clock_drift {drift}");
    }
    for problem in &r.problems {
        println!("# WRONG {problem}");
    }
    let samples: u64 = r.windows.iter().map(|w| w.ops).sum();
    println!(
        "# {}: correct {} | attempted {} | failed {} | {samples} latency samples in the measured slices",
        r.name, r.correct, r.attempted, r.failed
    );
}

/// Remove what earlier runs left under `benchmark/target/`: the scratch
/// directory, and the `benchmark/` directory older versions logged into.
fn clean_scratch(scratch: &Path) -> std::io::Result<()> {
    let target = scratch.parent().expect("scratch lives under target/");
    for stale in [scratch.to_path_buf(), target.join("benchmark")] {
        match std::fs::remove_dir_all(&stale) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
    }
    std::fs::create_dir_all(scratch)
}

/// `--record-expected`: run round 0 of the single-client workloads and
/// commit what it returned and what it cost.
fn record_expected(plan: &Plan) -> ExitCode {
    let mut expected = oracle::Expected::new();
    oracle::forget_expected(plan.seed);
    for name in ["tpcd_power", "sap_reports"] {
        let mut world = build(name, plan);
        world.warm_up();
        expected.insert(name.to_string(), world.round0());
        let verdict = world.finish(&mut Layers::new());
        if let Some(problem) = verdict.problems.first() {
            eprintln!("refusing to record a wrong answer: {problem}");
            return ExitCode::FAILURE;
        }
    }
    match oracle::write_expected(plan.seed, &expected) {
        Ok(path) => {
            println!("recorded {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write expectations: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return match report::compare(base, new) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }

    let scratch = sys::package_dir().join("target").join("scratch");
    if let Err(e) = clean_scratch(&scratch) {
        eprintln!("cannot prepare {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let plan = Plan {
        seed: args.seed,
        measured: Duration::from_secs(if args.smoke { 1 } else { args.seconds }),
        setups: if args.smoke { 1 } else { SETUPS },
        scratch: scratch.clone(),
    };
    if args.record_expected {
        return record_expected(&plan);
    }

    let header = vec![
        ("commit".to_string(), sys::commit()),
        ("rustc".to_string(), sys::rustc_version()),
        ("nproc".to_string(), sys::nproc().to_string()),
        ("seed".to_string(), args.seed.to_string()),
        ("measured_s".to_string(), plan.measured.as_secs().to_string()),
        ("trace".to_string(), (args.trace as u8).to_string()),
    ];
    let (workloads, succeeded) = match args.workloads.as_slice() {
        [name] => {
            println!(
                "# {}",
                header.iter().map(|(k, v)| format!("{k} {v}")).collect::<Vec<_>>().join(" | ")
            );
            let report =
                if args.trace { run_traced(name, &plan) } else { run_untraced(name, &plan) };
            print_verdict(&report);
            println!("{}", report.result_line());
            (vec![(report.name.clone(), report.to_json())], report.correct)
        }
        names => {
            let (workloads, succeeded) = run_each_in_a_child(names, &args);
            println!("{}", report::combined_line(&workloads));
            (workloads, succeeded)
        }
    };
    // The logs are scratch; the span files under target/ stay.
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(out) = &args.out {
        if let Err(e) = report::write_out(out, &header, &workloads) {
            eprintln!("cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    if succeeded {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Several workloads: each in a process of its own, one after the other,
/// so that `peak_rss_mb` (`VmHWM` is the process's) is that workload's and
/// no workload runs in a heap another has grown. Returns their reports,
/// and whether every child exited with success.
fn run_each_in_a_child(names: &[&str], args: &Args) -> (Vec<(String, Json)>, bool) {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut workloads = Vec::new();
    let mut succeeded = true;
    for name in names {
        let out = sys::package_dir().join("target").join(format!("report_{name}.json"));
        let _ = std::fs::remove_file(&out);
        let mut child = Command::new(&exe);
        child.args(["--workload", name, "--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        child.arg("--out").arg(&out);
        if args.smoke {
            child.arg("--smoke");
        }
        // `status` waits for the child to end.
        succeeded &= child.status().is_ok_and(|s| s.success());
        match report::read_out(&out) {
            Ok(report) => workloads.extend(report),
            Err(e) => {
                eprintln!("{name} left no report: {e}");
                succeeded = false;
            }
        }
        let _ = std::fs::remove_file(&out);
    }
    (workloads, succeeded)
}
