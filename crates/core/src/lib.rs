//! # ehj-core — Expanding Hash-based Join Algorithms
//!
//! A from-scratch reproduction of *"Strategies for Using Additional
//! Resources in Parallel Hash-based Join Algorithms"* (Zhang, Kurc, Pan,
//! Catalyurek, Narayanan, Wyckoff, Saltz — HPDC 2004).
//!
//! The paper compares three adaptive parallel hash-join algorithms that
//! recruit additional cluster nodes when a join node's hash-table memory
//! fills during the build phase — **split-based** (linear hashing, Amin et
//! al.), **replication-based**, and a **hybrid** that replicates while
//! building and then *reshuffles* to a disjoint partitioning before probing
//! — against a non-expanding **out-of-core** baseline.
//!
//! ## Quick start
//!
//! ```
//! use ehj_core::{Algorithm, JoinConfig, JoinRunner};
//!
//! // The paper's setup, scaled down 500x so it runs in milliseconds.
//! let cfg = JoinConfig::paper_scaled(Algorithm::Hybrid, 500);
//! let report = JoinRunner::run(&cfg).expect("join runs");
//! assert!(report.times.total_secs > 0.0);
//! println!(
//!     "{}: {:.2}s total, {} matches, expanded to {} nodes",
//!     report.algorithm.label(),
//!     report.times.total_secs,
//!     report.matches,
//!     report.final_nodes,
//! );
//! ```
//!
//! ## Architecture
//!
//! The system components of §4.1 — a scheduler, data sources and join
//! processes — are actors ([`scheduler::Scheduler`], [`source::DataSource`],
//! [`join_node::JoinNode`]) that run unchanged on either of two runtimes
//! from `ehj-sim`: a deterministic discrete-event simulator with a
//! calibrated model of the paper's 24-node PC cluster (the default), or a
//! work-stealing worker pool with real temp files. A query goes through one
//! lifecycle either way, standalone ([`JoinRunner`]) or as one of many
//! ([`JoinService`]); see [`runner`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod barrier;
pub mod config;
pub mod join_node;
pub mod msg;
pub mod reference;
pub mod report;
pub mod routing;
pub mod runner;
pub mod scheduler;
pub mod service;
pub mod source;
#[cfg(test)]
pub(crate) mod testutil;
pub mod topology;

pub use analysis::OverheadModel;
pub use config::{Algorithm, CostModel, JoinConfig, ProbeKernel};
pub use msg::{Msg, NodeReport};
pub use reference::{expected_matches, expected_matches_for};
pub use report::JoinReport;
pub use routing::RoutingTable;
pub use runner::{Backend, JoinError, JoinRunner, RunOptions};
pub use service::{JoinService, QueryHandle, QueryId, ServiceConfig};
pub use topology::Topology;
