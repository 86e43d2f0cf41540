//! Index layer: disk-resident B+-trees over order-preserving encoded keys.

pub mod btree;

pub use btree::{increment_bytes, BTree, Batch};
