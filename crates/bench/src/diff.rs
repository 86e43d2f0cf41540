//! Baseline comparison for `BENCH_*.json` documents.
//!
//! CI regenerates a benchmark and diffs it against the committed baseline.
//! Absolute QthD is wall-clock and therefore machine-dependent — a laptop
//! baseline would fail every CI runner — so the gate is on the QthD
//! *ratios* each document already reports in its `comparison` object
//! (the observe experiment's `on_over_off`, collectors on over off, and
//! `extended_over_simple`, the extended over the simple protocol's QthD):
//! dimensionless, same-machine quotients that are comparable across
//! hardware. A run fails when any ratio regresses more
//! than the tolerance (default 10%) below the committed value.
//!
//! Attribution *fractions* (`comparison` fields ending in `_fraction`,
//! such as the observe experiment's critical-path shares) are gated too,
//! but two-sided: a fraction of end-to-end latency has no "more is better"
//! direction, so the generated value must stay within ±tolerance
//! (absolute) of the baseline. Fractions are already in [0, 1], making absolute tolerance
//! the natural unit.

use serde_json::Json;

/// Outcome of one baseline comparison.
#[derive(Debug, Default)]
pub struct DiffOutcome {
    /// `(metric, generated, baseline)` for every ratio checked.
    pub checked: Vec<(String, f64, f64)>,
    /// Human-readable reasons the comparison failed; empty means pass.
    pub failures: Vec<String>,
}

impl DiffOutcome {
    pub fn passed(&self) -> bool {
        !self.checked.is_empty() && self.failures.is_empty()
    }
}

fn get<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// Compare the QthD ratios of `generated` against `baseline`. Ratio
/// metrics are the numeric fields of the top-level `comparison` object
/// whose names contain `_over_`.
pub fn compare_ratios(generated: &Json, baseline: &Json, tolerance: f64) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    let base_cmp = match get(baseline, "comparison") {
        Some(c) => c,
        None => {
            out.failures.push("baseline has no 'comparison' object".into());
            return out;
        }
    };
    let gen_cmp = get(generated, "comparison");
    let fields = match base_cmp {
        Json::Object(fields) => fields,
        _ => {
            out.failures.push("baseline 'comparison' is not an object".into());
            return out;
        }
    };
    for (key, value) in fields {
        let is_ratio = key.contains("_over_");
        let is_fraction = key.ends_with("_fraction");
        if !is_ratio && !is_fraction {
            continue;
        }
        let base = match number(value) {
            Some(v) => v,
            None => continue,
        };
        let gen = gen_cmp.and_then(|c| get(c, key)).and_then(number);
        match gen {
            Some(gen) => {
                out.checked.push((key.clone(), gen, base));
                if is_ratio {
                    // One-sided: only a drop below baseline is a regression.
                    let floor = base * (1.0 - tolerance);
                    if gen < floor {
                        out.failures.push(format!(
                            "{key}: generated {gen:.4} regressed more than {:.0}% below \
                             baseline {base:.4} (floor {floor:.4})",
                            tolerance * 100.0
                        ));
                    }
                } else {
                    // Two-sided absolute: a fraction drifting either way
                    // means the latency attribution shape changed.
                    let drift = (gen - base).abs();
                    if drift > tolerance {
                        out.failures.push(format!(
                            "{key}: generated fraction {gen:.4} drifted {drift:.4} from \
                             baseline {base:.4} (allowed ±{tolerance:.4} absolute)",
                        ));
                    }
                }
            }
            None => out
                .failures
                .push(format!("{key}: present in baseline but missing from generated run")),
        }
    }
    if out.checked.is_empty() && out.failures.is_empty() {
        out.failures.push("baseline 'comparison' has no '_over_' or '_fraction' metrics".into());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(ratio: f64) -> Json {
        Json::object().field("benchmark", "observe").field(
            "comparison",
            Json::object()
                .field("qthd_collectors_off", 1000.0)
                .field("qthd_collectors_on", 1000.0 * ratio)
                .field("on_over_off", ratio),
        )
    }

    #[test]
    fn equal_ratios_pass() {
        let out = compare_ratios(&doc(0.99), &doc(0.99), 0.10);
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.checked.len(), 1);
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let out = compare_ratios(&doc(0.92), &doc(0.99), 0.10);
        assert!(out.passed(), "{:?}", out.failures);
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let out = compare_ratios(&doc(0.80), &doc(0.99), 0.10);
        assert!(!out.passed());
        assert!(out.failures[0].contains("on_over_off"));
    }

    #[test]
    fn improvements_always_pass() {
        let out = compare_ratios(&doc(1.20), &doc(0.99), 0.10);
        assert!(out.passed(), "{:?}", out.failures);
    }

    #[test]
    fn missing_metric_in_generated_fails() {
        let gen = Json::object().field("comparison", Json::object().field("qthd", 5.0));
        let out = compare_ratios(&gen, &doc(0.99), 0.10);
        assert!(!out.passed());
        assert!(out.failures[0].contains("missing from generated"));
    }

    #[test]
    fn baseline_without_ratios_fails_loudly() {
        let empty = Json::object().field("comparison", Json::object().field("qthd", 5.0));
        let out = compare_ratios(&doc(0.99), &empty, 0.10);
        assert!(!out.passed());
        assert!(out.failures[0].contains("no '_over_' or '_fraction' metrics"));
    }

    fn frac_doc(lock: f64, exec: f64) -> Json {
        Json::object().field(
            "comparison",
            Json::object()
                .field("blind_lock_fraction", lock)
                .field("blind_exec_fraction", exec)
                .field("p99_end_to_end_us", 120_000.0),
        )
    }

    #[test]
    fn fractions_within_absolute_tolerance_pass_either_direction() {
        let out = compare_ratios(&frac_doc(0.55, 0.30), &frac_doc(0.60, 0.25), 0.10);
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.checked.len(), 2, "both fractions gated, absolute us ignored");
    }

    #[test]
    fn fraction_drift_beyond_tolerance_fails_both_directions() {
        // Down: lock share collapsed.
        let out = compare_ratios(&frac_doc(0.40, 0.25), &frac_doc(0.60, 0.25), 0.10);
        assert!(!out.passed());
        assert!(out.failures[0].contains("blind_lock_fraction"), "{:?}", out.failures);
        // Up: exec share ballooned — equally a shape change.
        let out = compare_ratios(&frac_doc(0.60, 0.45), &frac_doc(0.60, 0.25), 0.10);
        assert!(!out.passed());
        assert!(out.failures[0].contains("blind_exec_fraction"), "{:?}", out.failures);
    }

    #[test]
    fn fraction_missing_from_generated_fails() {
        let gen = Json::object().field("comparison", Json::object().field("other", 1.0));
        let out = compare_ratios(&gen, &frac_doc(0.60, 0.25), 0.10);
        assert!(!out.passed());
        assert!(out.failures.iter().any(|f| f.contains("missing from generated")));
    }

    #[test]
    fn non_observe_docs_compare_their_own_ratios() {
        let server = |r: f64| {
            Json::object().field(
                "comparison",
                Json::object()
                    .field("extended_over_simple", r)
                    .field("extended_beats_simple", true),
            )
        };
        let out = compare_ratios(&server(4.0), &server(5.0), 0.10);
        assert!(!out.passed(), "4.0 < 5.0 * 0.9");
        let out = compare_ratios(&server(4.6), &server(5.0), 0.10);
        assert!(out.passed(), "{:?}", out.failures);
    }
}
