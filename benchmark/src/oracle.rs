//! Correctness oracle: order-insensitive result-set hashes, the committed
//! expectations for the recorded seeds, and the verdict a run ends with.

use crate::sys::package_dir;
use rdbms::{Counter, MeterSnapshot, Row, Value};
use serde_json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Normalize a value so the isolated schema and the SAP schema compare:
/// zero-padded CHAR(16) keys become integers, strings are trimmed,
/// decimals are rounded to four places (in integers: through `f64` a tie at
/// the fifth place rounds one way or the other by the scale the value
/// happens to carry, and a SUM comes back at scale 12 from a report and at
/// scale 6 from the engine).
fn norm(v: &Value) -> String {
    match v {
        Value::Str(s) => {
            let t = s.trim();
            if t.len() >= 6 && t.bytes().all(|c| c.is_ascii_digit()) {
                t.parse::<i64>().map_or_else(|_| t.to_string(), |n| n.to_string())
            } else {
                t.to_string()
            }
        }
        Value::Decimal(d) => {
            let m = d.rescale(5).mantissa();
            ((m + 5 * m.signum()) / 10).to_string()
        }
        Value::Int(i) => i.to_string(),
        Value::Null => "NULL".into(),
        other => other.to_string(),
    }
}

/// Hash of a result set as a multiset of normalized rows (every TPC-D
/// query orders its output only up to ties, so row order is not compared).
pub fn hash_rows(rows: &[Row]) -> u64 {
    hash_row_prefixes(rows, usize::MAX)
}

/// [`hash_rows`] over the first `width` columns of every row: a SAP report
/// may return fewer trailing columns than the isolated query (Q10 leaves
/// the customer comment, a long text, behind).
pub fn hash_row_prefixes(rows: &[Row], width: usize) -> u64 {
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| r.iter().take(width).map(norm).collect::<Vec<_>>().join("\u{1f}"))
        .collect();
    lines.sort_unstable();
    lines.iter().fold(FNV_OFFSET, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n"))
}

/// What a run's correctness checks found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Wrong answers: any entry makes the run `correct: false`.
    pub problems: Vec<String>,
    /// Round-0 counters that moved against the committed expectation: a
    /// behaviour change to be argued, printed but not a failure.
    pub cost_clock_drift: Vec<String>,
}

impl Verdict {
    pub fn problem(&mut self, what: impl Into<String>) {
        // Enough to diagnose; a systematic error would otherwise flood.
        if self.problems.len() < 20 {
            self.problems.push(what.into());
        }
    }
}

/// Round-0 facts of one op type on a single-client workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpFacts {
    pub hash: u64,
    pub counters: MeterSnapshot,
}

/// Per-workload expectations for one seed: op type -> facts.
pub type Expected = BTreeMap<String, BTreeMap<String, OpFacts>>;

fn expected_path(seed: u64) -> PathBuf {
    package_dir().join("expected").join(format!("seed{seed}.json"))
}

fn facts_to_json(facts: &BTreeMap<String, OpFacts>) -> Json {
    Json::Object(
        facts
            .iter()
            .map(|(op, f)| {
                let counters = Json::Object(
                    Counter::ALL
                        .iter()
                        .filter(|&&c| f.counters.get(c) != 0)
                        .map(|&c| (c.name().to_string(), Json::from(f.counters.get(c))))
                        .collect(),
                );
                let entry = Json::object()
                    .field("hash", format!("{:016x}", f.hash))
                    .field("counters", counters);
                (op.clone(), entry)
            })
            .collect(),
    )
}

fn facts_from_json(json: &Json) -> Option<BTreeMap<String, OpFacts>> {
    let Json::Object(ops) = json else { return None };
    ops.iter()
        .map(|(op, entry)| {
            let hash = u64::from_str_radix(entry.get("hash")?.as_str()?, 16).ok()?;
            let mut counters = MeterSnapshot::default();
            for &c in Counter::ALL.iter() {
                if let Some(v) = entry.get("counters")?.get(c.name()) {
                    counters.set(c, v.as_f64()? as u64);
                }
            }
            Some((op.clone(), OpFacts { hash, counters }))
        })
        .collect()
}

/// Write `benchmark/expected/seed<N>.json` (`--record-expected`).
pub fn write_expected(seed: u64, expected: &Expected) -> std::io::Result<PathBuf> {
    let path = expected_path(seed);
    std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))?;
    let workloads =
        Json::Object(expected.iter().map(|(w, f)| (w.clone(), facts_to_json(f))).collect());
    let doc = Json::object().field("seed", seed).field("workloads", workloads);
    let text = serde_json::to_string_pretty(&doc).expect("Json renders");
    std::fs::write(&path, text + "\n")?;
    Ok(path)
}

/// Drop the recorded expectation for `seed`, so that a new recording is not
/// judged by the one it replaces.
pub fn forget_expected(seed: u64) {
    let _ = std::fs::remove_file(expected_path(seed));
}

/// The committed expectation for (seed, workload); `None` for a seed that
/// was never recorded (such a run still checks itself, see each workload).
pub fn read_expected(seed: u64, workload: &str) -> Option<BTreeMap<String, OpFacts>> {
    let text = std::fs::read_to_string(expected_path(seed)).ok()?;
    let doc = serde_json::from_str(&text).ok()?;
    facts_from_json(doc.get("workloads")?.get(workload)?)
}

/// Compare a run's round-0 facts with the committed ones.
pub fn check_expected(
    workload: &str,
    expected: &BTreeMap<String, OpFacts>,
    got: &BTreeMap<String, OpFacts>,
    verdict: &mut Verdict,
) {
    for (op, want) in expected {
        let Some(have) = got.get(op) else {
            verdict.problem(format!("{workload}/{op}: expected op type never ran"));
            continue;
        };
        if have.hash != want.hash {
            verdict.problem(format!(
                "{workload}/{op}: result hash {:016x}, expected {:016x}",
                have.hash, want.hash
            ));
        }
        for &c in Counter::ALL.iter() {
            let (h, w) = (have.counters.get(c), want.counters.get(c));
            // Enough to see what moved; a new data size moves them all.
            if h != w && verdict.cost_clock_drift.len() < 20 {
                verdict.cost_clock_drift.push(format!("{workload}/{op}: {} {w} -> {h}", c.name()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_ignores_row_order_and_key_padding() {
        let a = vec![
            vec![Value::str("0000000000000042"), Value::decimal(12345, 2)],
            vec![Value::Int(7), Value::str("x ")],
        ];
        let b = vec![
            vec![Value::Int(7), Value::str("x")],
            vec![Value::Int(42), Value::decimal(1234500, 4)],
        ];
        assert_eq!(hash_rows(&a), hash_rows(&b));
        let c = vec![vec![Value::Int(7), Value::str("y")], b[1].clone()];
        assert_ne!(hash_rows(&a), hash_rows(&c));
        assert_ne!(hash_rows(&[]), hash_rows(&[vec![]]));
    }

    #[test]
    fn a_tie_at_the_fifth_place_rounds_the_same_at_every_scale() {
        // 14539295.044350: seed 14's Q1 sum_charge, which `{:.4}` of
        // `to_f64` printed as .0443 at scale 6 and .0444 at scale 12.
        let engine = vec![vec![Value::decimal(14_539_295_044_350, 6)]];
        let report = vec![vec![Value::decimal(14_539_295_044_350_000_000, 12)]];
        assert_eq!(hash_rows(&engine), hash_rows(&report));
        assert_eq!(norm(&Value::decimal(-25, 5)), norm(&Value::decimal(-3, 4)));
        assert_ne!(norm(&Value::decimal(24, 5)), norm(&Value::decimal(25, 5)));
    }

    #[test]
    fn expectations_round_trip_and_split_hash_from_counter_drift() {
        let facts = |hash, tuples| OpFacts {
            hash,
            counters: MeterSnapshot::default().with(Counter::DbTuples, tuples),
        };
        let want: BTreeMap<String, OpFacts> =
            [("q01".to_string(), facts(u64::MAX - 1, 10)), ("q02".to_string(), facts(2, 20))]
                .into();
        assert_eq!(facts_from_json(&facts_to_json(&want)).as_ref(), Some(&want));

        let got: BTreeMap<String, OpFacts> =
            [("q01".to_string(), facts(u64::MAX - 1, 11)), ("q02".to_string(), facts(3, 20))]
                .into();
        let mut verdict = Verdict::default();
        check_expected("w", &want, &got, &mut verdict);
        assert_eq!(verdict.problems.len(), 1, "{:?}", verdict.problems);
        assert!(verdict.problems[0].contains("q02"));
        assert_eq!(verdict.cost_clock_drift, vec!["w/q01: db_tuples 10 -> 11".to_string()]);
    }
}
