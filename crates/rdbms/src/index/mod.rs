//! Index layer: disk-resident B+-trees over order-preserving encoded keys.

pub mod btree;

pub use btree::{check_key, increment_bytes, BTree, Batch};
