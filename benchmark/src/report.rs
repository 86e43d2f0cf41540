//! What a run reports: per-workload metrics, the one-line JSON result the
//! driver reads, the `--out` file, and `--compare` of two such files.

use crate::catalog;
use crate::sys::package_dir;
use serde_json::Json;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    pub name: String,
    pub value: f64,
    /// (max - min) / median of the per-window (or per-set-up) values the
    /// metric was summarised from; 0 for single readings.
    pub spread: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    pub seconds: f64,
    pub ops: u64,
    /// Kept slices the window is made of.
    pub slices: u64,
}

#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    pub name: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`):
    /// what the result line carries.
    pub metrics: Vec<MetricValue>,
    /// Written to `--out` beside `metrics`, not to the result line.
    pub extra: Vec<MetricValue>,
    pub windows: Vec<WindowSummary>,
    pub problems: Vec<String>,
    pub cost_clock_drift: Vec<String>,
}

/// `{name: {value, unit[, spread]}}` for the given metrics.
fn metrics_json(metrics: &[MetricValue], with_spread: bool) -> Vec<(String, Json)> {
    metrics
        .iter()
        .map(|m| {
            let mut entry =
                Json::object().field("value", m.value).field("unit", catalog::unit_of(&m.name));
            if with_spread {
                entry = entry.field("spread", m.spread);
            }
            (m.name.clone(), entry)
        })
        .collect()
}

impl WorkloadReport {
    /// The driver's contract: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, on one line.
    pub fn result_line(&self) -> String {
        let doc = Json::object()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", Json::Object(metrics_json(&self.metrics, false)));
        serde_json::to_string(&doc).expect("Json renders")
    }

    pub fn to_json(&self) -> Json {
        let all_metrics: Vec<MetricValue> =
            self.metrics.iter().chain(&self.extra).cloned().collect();
        let windows: Vec<Json> = self
            .windows
            .iter()
            .map(|w| {
                Json::object()
                    .field("seconds", w.seconds)
                    .field("ops", w.ops)
                    .field("slices", w.slices)
            })
            .collect();
        Json::object()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", Json::Object(metrics_json(&all_metrics, true)))
            .field("windows", Json::Array(windows))
            .field("problems", Json::from(self.problems.clone()))
            .field("cost_clock_drift", Json::from(self.cost_clock_drift.clone()))
    }
}

/// One combined result line for several workloads, from the reports their
/// processes wrote: metrics are keyed `<workload>/<metric>`.
pub fn combined_line(workloads: &[(String, Json)]) -> String {
    let count = |w: &Json, key: &str| w.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let metrics = workloads
        .iter()
        .flat_map(|(name, w)| match w.get("metrics") {
            Some(Json::Object(ms)) => {
                ms.iter().map(|(m, v)| (format!("{name}/{m}"), v.clone())).collect()
            }
            _ => Vec::new(),
        })
        .collect();
    let doc = Json::object()
        .field(
            "correct",
            workloads.iter().all(|(_, w)| matches!(w.get("correct"), Some(Json::Bool(true)))),
        )
        .field("attempted", workloads.iter().map(|(_, w)| count(w, "attempted")).sum::<u64>())
        .field("failed", workloads.iter().map(|(_, w)| count(w, "failed")).sum::<u64>())
        .field("metrics", Json::Object(metrics));
    serde_json::to_string(&doc).expect("Json renders")
}

/// The `--out` file: header facts plus every workload's full report.
pub fn write_out(
    path: &Path,
    header: &[(String, String)],
    workloads: &[(String, Json)],
) -> std::io::Result<()> {
    let head =
        Json::Object(header.iter().map(|(k, v)| (k.clone(), Json::from(v.clone()))).collect());
    let doc =
        Json::object().field("header", head).field("workloads", Json::Object(workloads.to_vec()));
    std::fs::write(path, serde_json::to_string_pretty(&doc).expect("Json renders") + "\n")
}

/// The workloads of an `--out` file, in file order.
pub fn read_out(path: &Path) -> Result<Vec<(String, Json)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get("workloads") {
        Some(Json::Object(workloads)) => Ok(workloads.clone()),
        _ => Err(format!("{}: no \"workloads\" object (write it with --out)", path.display())),
    }
}

// ---- compare ------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    /// The windows of one of the runs lie further apart than the bound:
    /// the two runs cannot be told apart at this resolution.
    Unresolved,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when it is better).
pub fn worsening(base: f64, new: f64, higher_is_better: bool) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let change = (new - base) / base.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(worse_by: f64, widest_spread: f64, bound: f64) -> Status {
    if widest_spread > bound {
        Status::Unresolved
    } else if worse_by > bound {
        Status::Regressed
    } else {
        Status::Ok
    }
}

/// A side of a comparison: workload -> (failed, attempted, metric -> (value, spread)).
type Side = BTreeMap<String, (f64, f64, BTreeMap<String, (f64, f64)>)>;

fn read_side(path: &Path) -> Result<Side, String> {
    let number = |j: &Json, key: &str| j.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(read_out(path)?
        .iter()
        .map(|(name, w)| {
            let metrics = match w.get("metrics") {
                Some(Json::Object(ms)) => ms
                    .iter()
                    .map(|(m, v)| (m.clone(), (number(v, "value"), number(v, "spread"))))
                    .collect(),
                _ => BTreeMap::new(),
            };
            (name.clone(), (number(w, "failed"), number(w, "attempted"), metrics))
        })
        .collect())
}

/// End-to-end metric -> bound, from `BENCHMARK.json` beside the package.
pub fn read_bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = package_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Array(metrics)) = doc.get("end_to_end") else {
        return Err(format!("{}: no \"end_to_end\" list", path.display()));
    };
    Ok(metrics
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect())
}

/// One line per workload x end-to-end metric (and the all-slices rate and
/// tail, held to the bounds of the metrics they shadow), and whether the new side is clean: no row
/// regressed, nothing the base has is missing from it, and no workload
/// failed a larger share of its ops.
fn compare_sides(
    base: &Side,
    new: &Side,
    bounds: &BTreeMap<String, f64>,
) -> Result<(Vec<String>, bool), String> {
    let mut clean = true;
    let mut lines = Vec::new();
    let better = |metric: &str| {
        catalog::END_TO_END.iter().find(|(n, _, _)| *n == metric).map_or("lower", |e| e.2)
    };
    let gated: Vec<(&str, &str, &str)> = catalog::END_TO_END
        .iter()
        .map(|&(name, _, better)| (name, name, better))
        .chain(catalog::ALL_SLICES.map(|(name, shadowed)| (name, shadowed, better(shadowed))))
        .collect();
    for (workload, (b_failed, b_attempted, b_metrics)) in base {
        let Some((n_failed, n_attempted, n_metrics)) = new.get(workload) else {
            clean = false;
            lines.push(format!("{workload:<12} missing from the new side: regressed"));
            continue;
        };
        for &(name, bound_of, better) in &gated {
            let Some(&(b, b_spread)) = b_metrics.get(name) else { continue };
            let Some(&(n, n_spread)) = n_metrics.get(name) else {
                clean = false;
                lines.push(format!(
                    "{workload:<12} {name:<27} missing from the new side: regressed"
                ));
                continue;
            };
            let bound = bounds
                .get(bound_of)
                .copied()
                .ok_or(format!("BENCHMARK.json has no bound for {bound_of}"))?;
            let spread = b_spread.max(n_spread);
            let status = judge(worsening(b, n, better == "higher"), spread, bound);
            clean &= status != Status::Regressed;
            lines.push(format!(
                "{workload:<12} {name:<27} {b:>12.4} {n:>12.4} {:>8.4} {spread:>7.4} {bound:>7.4}  {}",
                n / b,
                status.label()
            ));
        }
        let (b_share, n_share) = (b_failed / b_attempted.max(1.0), n_failed / n_attempted.max(1.0));
        if n_share > b_share {
            clean = false;
            lines.push(format!(
                "{workload:<12} failed/attempted rose from {b_share:.6} to {n_share:.6}: regressed"
            ));
        }
    }
    Ok((lines, clean))
}

/// `--compare`: print the rows; `Ok(true)` when the new side is clean.
pub fn compare(base_path: &Path, new_path: &Path) -> Result<bool, String> {
    let (lines, clean) =
        compare_sides(&read_side(base_path)?, &read_side(new_path)?, &read_bounds()?)?;
    println!(
        "{:<12} {:<27} {:>12} {:>12} {:>8} {:>7} {:>7}  status",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    lines.iter().for_each(|l| println!("{l}"));
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(2.0, 2.2, false) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let bound = 0.07;
        assert_eq!(judge(0.03, 0.02, bound), Status::Ok);
        assert_eq!(judge(-0.30, 0.02, bound), Status::Ok, "an improvement is not a regression");
        assert_eq!(judge(0.08, 0.02, bound), Status::Regressed);
        assert_eq!(judge(0.07, 0.07, bound), Status::Ok, "the bound itself is allowed");
        // Windows further apart than the bound: neither verdict holds.
        assert_eq!(judge(0.20, 0.09, bound), Status::Unresolved);
        assert_eq!(judge(0.00, 0.09, bound), Status::Unresolved);
    }

    #[test]
    fn compare_flags_what_is_missing_and_gates_the_all_slices_views() {
        let side = |metrics: &[(&str, f64)]| -> Side {
            let metrics = metrics.iter().map(|&(m, v)| (m.to_string(), (v, 0.01))).collect();
            [("w".to_string(), (0.0, 100.0, metrics))].into()
        };
        let bounds: BTreeMap<String, f64> =
            [("ops_per_s".to_string(), 0.1), ("op_p95_ms".to_string(), 0.1)].into();
        let (rate, tail) = (catalog::ALL_SLICES_RATE, catalog::ALL_SLICES_P95);
        let base = side(&[("ops_per_s", 100.0), ("op_p95_ms", 5.0), (rate, 90.0), (tail, 6.0)]);
        let verdict = |new: &Side| compare_sides(&base, new, &bounds).unwrap();
        let regressed = |lines: &[String], metric: &str| {
            lines.iter().any(|l| l.contains(metric) && l.ends_with("regressed"))
        };

        assert!(verdict(&base).1, "a run compares clean against itself");
        // Selection hides a stall from the eight; the all-slices views show it.
        let (lines, clean) =
            verdict(&side(&[("ops_per_s", 100.0), ("op_p95_ms", 5.0), (rate, 70.0), (tail, 6.0)]));
        assert!(!clean && regressed(&lines, rate), "{lines:?}");
        let (lines, clean) =
            verdict(&side(&[("ops_per_s", 100.0), ("op_p95_ms", 5.0), (rate, 90.0), (tail, 7.0)]));
        assert!(!clean && regressed(&lines, tail), "{lines:?}");
        // What the base has and the new side lacks counts against it.
        let (lines, clean) = verdict(&side(&[("ops_per_s", 100.0), (rate, 90.0), (tail, 6.0)]));
        assert!(!clean && regressed(&lines, "op_p95_ms "), "{lines:?}");
        let (lines, clean) = verdict(&Side::new());
        assert!(!clean && lines[0].contains("missing"), "{lines:?}");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = WorkloadReport {
            name: "tpcd_power".into(),
            correct: true,
            attempted: 19,
            failed: 0,
            metrics: vec![MetricValue { name: "ops_per_s".into(), value: 58.25, spread: 0.01 }],
            extra: vec![MetricValue {
                name: catalog::ALL_SLICES_RATE.into(),
                value: 50.0,
                spread: 0.02,
            }],
            ..WorkloadReport::default()
        };
        let Json::Object(fields) = serde_json::from_str(&report.result_line()).unwrap() else {
            panic!()
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = fields[3].1.get("ops_per_s").unwrap();
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(58.25));
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("1/s"));
        assert!(metric.get("spread").is_none());
        assert!(fields[3].1.get(catalog::ALL_SLICES_RATE).is_none(), "--out only");
        let out = report.to_json();
        let extra = out.get("metrics").and_then(|m| m.get(catalog::ALL_SLICES_RATE)).unwrap();
        assert_eq!(extra.get("value").and_then(Json::as_f64), Some(50.0));
    }
}
