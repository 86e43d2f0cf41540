//! The deterministic cost clock.
//!
//! The clock now lives in the workspace-wide `trace` crate so the layers
//! above the engine (R/3 simulator, throughput driver, bench harness) can
//! share meters, spans, and histograms without depending on the engine.
//! This module re-exports it under the historical `rdbms::clock` path.

pub use trace::meter::{fmt_duration, Calibration, CostMeter, Counter, MeterScope, MeterSnapshot};
pub use trace::request::{
    chrome_trace_json, validate_chrome_trace, CriticalPath, RequestCtx, RequestGuard, RequestTrace,
    TraceRing,
};
pub use trace::wait::{WaitEvent, WaitSnapshot, WaitStats, WaitTimer};
