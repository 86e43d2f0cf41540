//! ST03-style workload statistics.
//!
//! SAP's transaction ST03 is the paper's primary tuning instrument at the
//! application-server level: dialog steps per transaction type with their
//! response-time decomposition (dispatcher queue, work-process service,
//! database share). The [`WorkloadMonitor`] is that roll-up for the
//! simulator: every completed dispatcher request is folded into an
//! aggregate keyed by *task type* — the request name with any trailing
//! `-<digits>` instance suffix stripped, so `order-17` and `order-18` are
//! one line — and work-process class. The aggregate is published as the
//! `M$WORKLOAD` monitor view, readable over the wire while the dispatcher
//! is still serving.

use crate::dispatcher::{RequestStats, WpKind};
use parking_lot::Mutex;
use rdbms::monitor::MonitorView;
use rdbms::schema::Column;
use rdbms::types::{DataType, Value};
use serde_json::Json;
use std::collections::HashMap;
use std::sync::Arc;
use trace::meter::Calibration;

/// Aggregated statistics for one (task type, work-process class) pair.
#[derive(Debug, Clone, Default)]
pub struct TaskStats {
    /// Completed dispatcher steps (ST03's "dialog steps" for DIA).
    pub steps: u64,
    /// Steps whose job returned an error.
    pub errors: u64,
    /// Total time spent in the dispatcher queue, microseconds.
    pub queue_us: u64,
    /// Total time inside a work process, microseconds.
    pub service_us: u64,
    /// Calibrated database share of the service time, microseconds.
    pub db_us: u64,
}

impl TaskStats {
    pub fn mean_service_us(&self) -> u64 {
        self.service_us.checked_div(self.steps).unwrap_or(0)
    }
}

/// Strip a trailing `-<digits>` instance suffix: `order-17` → `order`,
/// `ship` → `ship`. Names whose tail is not numeric are left alone.
pub fn task_type(name: &str) -> &str {
    match name.rsplit_once('-') {
        Some((head, tail)) if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) => head,
        _ => name,
    }
}

/// The roll-up. One per [`crate::R3System`]; the dispatcher's work
/// processes record into it concurrently.
#[derive(Debug, Default)]
pub struct WorkloadMonitor {
    inner: Mutex<HashMap<(String, WpKind), TaskStats>>,
}

impl WorkloadMonitor {
    pub fn new() -> Arc<WorkloadMonitor> {
        Arc::new(WorkloadMonitor::default())
    }

    /// Fold one completed request in. `cal` converts the request's metered
    /// work into its simulated database time.
    pub fn record(&self, stats: &RequestStats, cal: &Calibration) {
        let key = (task_type(&stats.name).to_string(), stats.kind);
        let mut inner = self.inner.lock();
        let agg = inner.entry(key).or_default();
        agg.steps += 1;
        agg.errors += stats.result.is_err() as u64;
        agg.queue_us += stats.queue_wait.as_micros() as u64;
        agg.service_us += stats.service.as_micros() as u64;
        agg.db_us += (stats.db_seconds(cal) * 1_000_000.0) as u64;
    }

    /// Point-in-time roll-up, sorted by task type then class.
    pub fn snapshot(&self) -> Vec<(String, WpKind, TaskStats)> {
        let inner = self.inner.lock();
        let mut out: Vec<(String, WpKind, TaskStats)> =
            inner.iter().map(|((t, k), s)| (t.clone(), *k, s.clone())).collect();
        out.sort_by(|a, b| (&a.0, a.1.to_string()).cmp(&(&b.0, b.1.to_string())));
        out
    }

    pub fn reset(&self) {
        self.inner.lock().clear();
    }

    /// Build the `M$WORKLOAD` view over this monitor.
    pub fn view(self: &Arc<Self>) -> Arc<MonitorView> {
        let monitor = Arc::clone(self);
        MonitorView::new(
            "M$WORKLOAD",
            vec![
                Column::new("TASK_TYPE", DataType::VarChar(64)),
                Column::new("WP_TYPE", DataType::VarChar(8)),
                Column::new("STEPS", DataType::Int),
                Column::new("ERRORS", DataType::Int),
                Column::new("QUEUE_US", DataType::Int),
                Column::new("SERVICE_US", DataType::Int),
                Column::new("DB_US", DataType::Int),
                Column::new("MEAN_SERVICE_US", DataType::Int),
            ],
            move || {
                monitor
                    .snapshot()
                    .into_iter()
                    .map(|(task, kind, s)| {
                        vec![
                            Value::str(task),
                            Value::str(kind.to_string()),
                            Value::Int(s.steps as i64),
                            Value::Int(s.errors as i64),
                            Value::Int(s.queue_us as i64),
                            Value::Int(s.service_us as i64),
                            Value::Int(s.db_us as i64),
                            Value::Int(s.mean_service_us() as i64),
                        ]
                    })
                    .collect()
            },
        )
    }

    pub fn to_json(&self) -> Json {
        let mut arr = Vec::new();
        for (task, kind, s) in self.snapshot() {
            arr.push(
                Json::object()
                    .field("task_type", task)
                    .field("wp_type", kind.to_string())
                    .field("steps", s.steps)
                    .field("errors", s.errors)
                    .field("queue_us", s.queue_us)
                    .field("service_us", s.service_us)
                    .field("db_us", s.db_us),
            );
        }
        Json::Array(arr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use trace::meter::MeterSnapshot;

    fn stats(name: &str, kind: WpKind, queue_ms: u64, service_ms: u64) -> RequestStats {
        RequestStats {
            name: name.to_string(),
            kind,
            worker: "DIA-0".into(),
            trace_id: 0,
            queue_wait: Duration::from_millis(queue_ms),
            service: Duration::from_millis(service_ms),
            work: MeterSnapshot::default(),
            result: Ok(()),
        }
    }

    #[test]
    fn task_type_strips_instance_suffix_only() {
        assert_eq!(task_type("order-17"), "order");
        assert_eq!(task_type("order-17-3"), "order-17");
        assert_eq!(task_type("ship"), "ship");
        assert_eq!(task_type("q3-run"), "q3-run");
        assert_eq!(task_type("x-"), "x-");
    }

    #[test]
    fn steps_aggregate_by_task_type_and_class() {
        let monitor = WorkloadMonitor::new();
        let cal = Calibration::default();
        monitor.record(&stats("order-1", WpKind::Dialog, 1, 10), &cal);
        monitor.record(&stats("order-2", WpKind::Dialog, 3, 30), &cal);
        monitor.record(&stats("update-1", WpKind::Batch, 0, 5), &cal);
        let snap = monitor.snapshot();
        assert_eq!(snap.len(), 2);
        let (task, kind, s) = &snap[0];
        assert_eq!((task.as_str(), *kind), ("order", WpKind::Dialog));
        assert_eq!(s.steps, 2);
        assert_eq!(s.queue_us, 4_000);
        assert_eq!(s.service_us, 40_000);
        assert_eq!(s.mean_service_us(), 20_000);
        assert_eq!(snap[1].0, "update");

        let view = monitor.view();
        assert_eq!(view.name(), "M$WORKLOAD");
        assert_eq!(view.rows().len(), 2);
        monitor.reset();
        assert!(monitor.snapshot().is_empty());
        assert!(view.rows().is_empty(), "view reads live state, not a copy");
    }
}
