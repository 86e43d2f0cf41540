//! # rdbms — a from-scratch relational database engine
//!
//! The "commercial RDBMS back-end" substrate for the reproduction of
//! *Database Performance in the Real World — TPC-D and SAP R/3* (SIGMOD
//! 1997). Provides:
//!
//! * slotted-page storage with a metered buffer pool and simulated disk,
//! * B+-tree indexes over order-preserving key encodings,
//! * a SQL front-end (parser for SELECT/DML/DDL with subqueries, CASE,
//!   date/interval arithmetic, parameters),
//! * a System-R-style planner with the two period-faithful behaviours the
//!   paper measures (parameter-blind plans, naive nested queries),
//! * a batch-streaming executor (operators pass row batches; DESIGN.md
//!   §15.5),
//! * the deterministic cost clock used by every experiment in this
//!   workspace (see DESIGN.md §5),
//! * an ARIES-style write-ahead log with group commit and restart
//!   recovery (see DESIGN.md §10).

pub mod catalog;
pub mod db;
pub mod error;
pub mod exec;
pub mod index;
pub mod load;
pub mod lock;
pub mod monitor;
pub mod plancache;
pub mod planner;
pub mod schema;
pub mod sql;
pub mod storage;
pub mod txn;
pub mod types;
pub mod wal;

pub use db::{Database, DbConfig, ExecOutcome, Prepared, QueryResult};
pub use error::{DbError, DbResult};
pub use load::BulkLoad;
pub use lock::{KeyRange, LockInfo, LockManager, LockMode, RowLock, RowMode, TxnId};
pub use monitor::{MonitorView, StatementCollector, StatementStats};
pub use plancache::{CachedPlan, PlanCache, PlanCacheEntryInfo};
pub use schema::{Column, Row, Schema};
pub use trace::meter::{Calibration, CostMeter, Counter, MeterScope, MeterSnapshot};
pub use trace::request::{CriticalPath, RequestCtx, RequestGuard, RequestTrace, TraceRing};
pub use trace::wait::{WaitEvent, WaitSnapshot, WaitStats, WaitTimer};
pub use txn::{Txn, TxnStats};
pub use types::{DataType, Date, Decimal, Value};
pub use wal::{CommitPolicy, Lsn, RecoveryReport, Wal, WalConfig};
